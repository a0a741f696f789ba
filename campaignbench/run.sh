#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout it is run in and runs
# it with the given flags (see README.md). Run it from the repository
# root: bash campaignbench/run.sh --workload campaign-s1196 --seed 1 ...
#
# Every build product, the Go build cache, the Go configuration directory
# and the benchmark's scratch files live under .bench_build in the
# current directory, so a run writes nothing outside the checkout and
# reads nothing outside it but the Go toolchain.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/campaignbench" && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" -out "$out" "$@"
