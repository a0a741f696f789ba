// Command campaignbench is the repository's end-to-end benchmark. It
// runs one workload through the entry points users call, checks every
// result against a pinned digest, and prints every end-to-end metric by
// name and unit. With -trace 1 it instead replays the workload as direct
// calls into the layers, with a span around each call, and prints the
// per-layer metrics. README.md lists the workloads, the metrics and the
// layer each metric belongs to.
//
// Usage, from the repository root (run.sh builds the command first):
//
//	bash campaignbench/run.sh --workload campaign-s1196 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":9.5,"unit":"s"},...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs the workload and prints the result. It
// returns the process exit code: 0 with a result line, 1 when the
// benchmark could not run, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "workload to run: "+workloadNames())
		seed    = fl.Uint64("seed", 1, "workload seed")
		seconds = fl.Int("seconds", 30, "measuring time of a timed run")
		traced  = fl.Int("trace", 0, "1 runs the traced layer replay instead of the timed run")
		out     = fl.String("out", ".bench_build", "directory for scratch files and the trace file")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || fl.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "campaignbench: need -workload (%s), -seconds >= 1 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	tmp := filepath.Join(*out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 1
	}

	in := w.inputSeed(*seed)
	fmt.Fprintf(stdout, "env workload=%s circuit=%s seed=%d input_seed=%d nproc=%d gomaxprocs=%d go=%s fsim_workers=%d\n",
		w.name, w.circuit, *seed, in, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOMAXPROCS(0))
	var (
		res *result
		err error
	)
	if *traced == 1 {
		res, err = tracedRun(w, in, tmp, filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed)), stdout)
	} else {
		res, err = timedRun(w, in, time.Duration(*seconds)*time.Second, tmp, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "campaignbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported figure. Every name and unit comes from the
// catalogues below, which BENCHMARK.json mirrors.
type metric struct {
	name  string
	value float64
}

// endToEnd are the metrics of a timed run, by name and unit.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_heap_mib", "MiB"},
}

// perLayer are the metrics of a traced run, by name and unit.
var perLayer = []struct{ name, unit string }{
	{"bmark.load_s", "s"},
	{"core.new_runner_s", "s"},
	{"fault.collapse_s", "s"},
	{"atpg.generate_s", "s"},
	{"atpg.retry_s", "s"},
	{"atpg.faults", "count"},
	{"atpg.untestable", "count"},
	{"atpg.aborted_default", "count"},
	{"atpg.aborted_final", "count"},
	{"atpg.generate_p50_ms", "ms"},
	{"atpg.generate_tail_ms", "ms"},
	{"atpg.generate_tail_pct", "%"},
	{"atpg.cache_hit_ratio", "ratio"},
	{"core.procedure1_s", "s"},
	{"core.pairs_tried", "count"},
	{"core.pair_yield", "ratio"},
	{"fsim.search_run_s", "s"},
	{"fsim.search_sessions", "count"},
	{"fsim.lane_fill", "ratio"},
	{"fsim.ts0_run_s", "s"},
	{"fsim.batches", "count"},
	{"fsim.fault_cycles_per_s", "1/s"},
	{"fsim.parallel_speedup", "ratio"},
	{"checkpoint.overhead_s", "s"},
	{"trace.overhead_s", "s"},
	{"replay.unaccounted_s", "s"},
}

// result is the outcome of one run: operations attempted and failed,
// and the metrics in catalogue order.
type result struct {
	attempted, failed int
	metrics           []metric
}

// write prints one line per metric, the failure ratio, and the JSON
// result line last.
func (r *result) write(w io.Writer) error {
	units := map[string]string{}
	for _, m := range append(append([]struct{ name, unit string }{}, endToEnd...), perLayer...) {
		units[m.name] = m.unit
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-26s %14.6g %s\n", m.name, m.value, units[m.name])
		ms[m.name] = value{m.value, units[m.name]}
	}
	// fail_ratio is reported here and through the attempted/failed
	// fields of the JSON line rather than as a gated metric: it is 0 on
	// every healthy run, so a relative bound on it is undefined.
	fmt.Fprintf(w, "metric %-26s %14.6g ratio (%d of %d operations failed)\n",
		"fail_ratio", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
