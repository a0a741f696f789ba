// Command benchfsim measures fault-simulation throughput across worker
// counts, writes a machine-readable scaling report (BENCH_fsim.json, a
// latest-snapshot view), and appends the same measurements as a
// schema-versioned record to the performance ledger — the append-only
// history `perf diff` and `perf check` compare against (see cmd/perf).
//
// Usage:
//
//	benchfsim [-circuit s35932] [-n 8 -len 8] [-workers 1,2,4,8] [-rounds 3] [-o BENCH_fsim.json] [-ledger PERF_ledger.jsonl]
//	benchfsim -trace bench-trace.json    # record + analyze an execution trace of the sweep
//
// Each worker count is timed over `rounds` full sessions on a fresh
// fault set and the best round is kept (standard best-of-N to shed
// scheduler noise); speedup is relative to Workers=1. When the sweep
// covers both kernels at Workers=1, the TS0 session is also timed after
// Procedure 1 inserted limited scans into it (core.InsertLimitedScans,
// I=1, D1=1), under each forced kernel at Workers=1: every test then
// carries its own shift schedule, so pattern_speedup_limscan_w1 measures
// the pattern-parallel kernel's mixed-shift words. Detections are
// cross-checked against the serial run, so the report doubles as a
// coarse correctness gate. Speedup beyond 1x requires actual hardware
// parallelism: the report records GOMAXPROCS and NumCPU, and a sweep
// that cannot actually run its workers in parallel (one-core host, or
// GOMAXPROCS below the widest point) is flagged degenerate — loudly on
// stderr and as `degenerate_parallelism` in the report and the ledger
// record — because its speedup column measures goroutine scheduling
// overhead, not scaling.
//
// With -trace the sweep also records an execution trace (per-worker
// batch spans, merge barriers; see internal/trace), writes it as Chrome
// trace-event JSON, and folds the trace's Amdahl decomposition — serial
// fraction and the speedup ceiling it implies — into the ledger record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"limscan/internal/bmark"
	"limscan/internal/cliobs"
	"limscan/internal/core"
	"limscan/internal/fault"
	"limscan/internal/fsim"
	"limscan/internal/ledger"
	"limscan/internal/scan"
	"limscan/internal/trace"
)

type workerPoint struct {
	Mode     string  `json:"mode"`
	Workers  int     `json:"workers"`
	NsPerOp  int64   `json:"ns_per_op"`
	Speedup  float64 `json:"speedup_vs_workers1"`
	Detected int     `json:"detected"`
}

type report struct {
	Circuit    string `json:"circuit"`
	Gates      int    `json:"gates"`
	Faults     int    `json:"faults"`
	Tests      int    `json:"tests"`
	Cycles     int64  `json:"cycles"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Rounds     int    `json:"rounds"`
	// PatternSpeedupW1 is fault-parallel ns_per_op over pattern-parallel
	// ns_per_op at Workers=1 — the single-thread PPSFP win. Zero when the
	// sweep did not cover both modes at Workers=1.
	PatternSpeedupW1 float64 `json:"pattern_speedup_w1,omitempty"`
	// PatternSpeedupLimscanW1 is the same ratio on the limited-scan
	// session (see the package comment); LimscanPoints are its timings.
	PatternSpeedupLimscanW1 float64       `json:"pattern_speedup_limscan_w1,omitempty"`
	LimscanPoints           []workerPoint `json:"limscan_points,omitempty"`
	// DegenerateParallelism marks a sweep whose host could not actually
	// run the workers in parallel; the speedup column is then scheduling
	// overhead, not scaling (see the package comment).
	DegenerateParallelism bool          `json:"degenerate_parallelism,omitempty"`
	Points                []workerPoint `json:"points"`
}

func main() {
	var (
		name      = flag.String("circuit", "s35932", "registry circuit name")
		n         = flag.Int("n", 8, "number of random tests")
		length    = flag.Int("len", 8, "vectors per test")
		seed      = flag.Uint64("seed", 1, "random seed")
		workers   = flag.String("workers", "1,2,4,8", "comma-separated worker counts to sweep")
		modes     = flag.String("mode", "fault-parallel,pattern-parallel", "comma-separated fsim modes to sweep")
		rounds    = flag.Int("rounds", 3, "timed rounds per worker count (best kept)")
		out       = flag.String("o", "BENCH_fsim.json", "output JSON path (- for stdout)")
		ledPath   = flag.String("ledger", "PERF_ledger.jsonl", "append the sweep to this JSON-lines performance ledger (empty to skip)")
		tracePath = flag.String("trace", "", "record an execution trace of the sweep and write Chrome trace-event JSON to this file; its serial-fraction analysis lands in the ledger record")
	)
	flag.Parse()

	c, err := bmark.Load(*name)
	if err != nil {
		fail(err)
	}
	var sweep []int
	maxWorkers := 0
	for _, tok := range strings.Split(*workers, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || w < 1 {
			fail(fmt.Errorf("bad -workers entry %q", tok))
		}
		sweep = append(sweep, w)
		if w > maxWorkers {
			maxWorkers = w
		}
	}

	var sweepModes []fsim.Mode
	for _, tok := range strings.Split(*modes, ",") {
		m, err := fsim.ParseMode(strings.TrimSpace(tok))
		if err != nil {
			fail(err)
		}
		sweepModes = append(sweepModes, m)
	}

	// A sweep the host cannot actually parallelize still runs — the
	// determinism cross-check is host-independent — but its timing
	// columns must not be mistaken for a scaling measurement. A
	// Workers=1-only sweep (the mode-comparison configuration) measures
	// no parallelism at all, so it is never degenerate.
	degenerate := maxWorkers > 1 && (runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < maxWorkers)
	if degenerate {
		fmt.Fprintf(os.Stderr,
			"benchfsim: WARNING: degenerate parallelism — NumCPU=%d, GOMAXPROCS=%d, widest sweep point %d workers;\n"+
				"benchfsim: WARNING: the speedup column measures scheduling overhead, not scaling, and is flagged degenerate_parallelism in the report\n",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), maxWorkers)
	}

	var tracer *trace.Recorder
	if *tracePath != "" {
		tracer = trace.New()
	}

	cfg := core.Config{LA: *length, LB: *length, N: (*n + 1) / 2, Seed: *seed}
	tests := core.GenerateTS0(c, cfg)
	if len(tests) > *n {
		tests = tests[:*n]
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	s := fsim.New(c)

	rep := report{
		Circuit:               c.Name,
		Gates:                 c.Stats().Gates,
		Faults:                len(reps),
		Tests:                 len(tests),
		GOMAXPROCS:            runtime.GOMAXPROCS(0),
		NumCPU:                runtime.NumCPU(),
		Rounds:                *rounds,
		DegenerateParallelism: degenerate,
	}
	// One sweep cell per (mode, workers); speedups are per mode relative
	// to its first (ideally Workers=1) point, detections are cross-checked
	// across every cell — the differential suite's claim, re-verified on
	// the benchmark workload itself.
	baseDetected := -1
	w1Ns := map[fsim.Mode]int64{}
	start := time.Now()
	for _, mode := range sweepModes {
		var baseNs int64
		for wi, w := range sweep {
			best, st := timeSession(s, tests, reps, fsim.Options{Mode: mode, Workers: w, Trace: tracer}, *rounds)
			detected := st.Detected
			rep.Cycles = st.Cycles
			if baseDetected < 0 {
				baseDetected = detected
			} else if detected != baseDetected {
				fail(fmt.Errorf("mode=%s workers=%d detected %d faults, first sweep cell detected %d — determinism violated",
					mode, w, detected, baseDetected))
			}
			if wi == 0 {
				if sweep[0] != 1 {
					fmt.Fprintln(os.Stderr, "benchfsim: warning: first sweep entry is not 1; speedups are relative to it")
				}
				baseNs = best
			}
			if w == 1 {
				w1Ns[mode] = best
			}
			rep.Points = append(rep.Points, workerPoint{
				Mode:     mode.String(),
				Workers:  w,
				NsPerOp:  best,
				Speedup:  float64(baseNs) / float64(best),
				Detected: detected,
			})
			fmt.Fprintf(os.Stderr, "benchfsim: %s mode=%s workers=%d best %s (%.2fx), %d/%d detected\n",
				c.Name, mode, w, time.Duration(best).Round(time.Millisecond),
				float64(baseNs)/float64(best), detected, len(reps))
		}
	}
	if fp, pp := w1Ns[fsim.FaultParallel], w1Ns[fsim.PatternParallel]; fp > 0 && pp > 0 {
		rep.PatternSpeedupW1 = float64(fp) / float64(pp)
		fmt.Fprintf(os.Stderr, "benchfsim: pattern-parallel single-thread speedup %.2fx\n", rep.PatternSpeedupW1)

		limscan := core.InsertLimitedScans(c, tests, 1, 1, cfg)
		lsNs := map[fsim.Mode]int64{}
		lsDetected := -1
		for _, mode := range []fsim.Mode{fsim.FaultParallel, fsim.PatternParallel} {
			best, st := timeSession(s, limscan, reps, fsim.Options{Mode: mode, Workers: 1, Trace: tracer}, *rounds)
			detected := st.Detected
			if lsDetected < 0 {
				lsDetected = detected
			} else if detected != lsDetected {
				fail(fmt.Errorf("limited-scan session: mode=%s detected %d faults, fault-parallel detected %d — determinism violated",
					mode, detected, lsDetected))
			}
			lsNs[mode] = best
			rep.LimscanPoints = append(rep.LimscanPoints, workerPoint{
				Mode: mode.String(), Workers: 1, NsPerOp: best, Speedup: 1, Detected: detected,
			})
			fmt.Fprintf(os.Stderr, "benchfsim: %s limited-scan mode=%s workers=1 best %s, %d/%d detected\n",
				c.Name, mode, time.Duration(best).Round(time.Millisecond), detected, len(reps))
		}
		rep.PatternSpeedupLimscanW1 = float64(lsNs[fsim.FaultParallel]) / float64(lsNs[fsim.PatternParallel])
		fmt.Fprintf(os.Stderr, "benchfsim: pattern-parallel single-thread speedup on the limited-scan session %.2fx\n",
			rep.PatternSpeedupLimscanW1)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("scaling report written to %s\n", *out)
	}

	// The trace is analyzed in-process (the recorder's model is the same
	// one `perf trace` builds from the file), so the ledger record below
	// carries the sweep's serial fraction without a second tool run.
	var analysis *trace.Analysis
	if tracer != nil {
		if err := cliobs.WriteTrace(*tracePath, tracer); err != nil {
			fail(err)
		}
		fmt.Printf("trace written to %s (analyze with `perf trace`, or load in Perfetto)\n", *tracePath)
		analysis = trace.Analyze(tracer.Model())
		fmt.Fprintf(os.Stderr, "benchfsim: trace: serial fraction %.1f%%, Amdahl max speedup %.2fx\n",
			analysis.SerialFraction*100, analysis.MaxSpeedup)
	}

	// The -o file is a latest-snapshot view (clobbered each run); the
	// ledger record is the history. The worker sweep lands in Points,
	// whose per-count ns_per_op values are what perf check gates.
	if *ledPath != "" {
		rec := &ledger.Record{
			Kind:    ledger.KindBenchFsim,
			Circuit: c.Name,
			ParamsHash: ledger.HashParams(map[string]any{
				"n": len(tests), "len": *length, "seed": *seed,
				"workers": sweep, "rounds": *rounds, "modes": *modes,
			}),
			Seed:                  *seed,
			Faults:                len(reps),
			Detected:              baseDetected,
			Coverage:              float64(baseDetected) / float64(len(reps)),
			TotalCycles:           rep.Cycles,
			WallSeconds:           time.Since(start).Seconds(),
			DegenerateParallelism: degenerate,
		}
		if analysis != nil {
			rec.SerialFraction = analysis.SerialFraction
			rec.MaxSpeedup = analysis.MaxSpeedup
		}
		rec.PatternSpeedup = rep.PatternSpeedupW1
		rec.PatternSpeedupLimscan = rep.PatternSpeedupLimscanW1
		for _, p := range rep.Points {
			rec.Points = append(rec.Points, ledger.BenchPoint{
				Mode: p.Mode, Workers: p.Workers, NsPerOp: p.NsPerOp, Speedup: p.Speedup,
			})
		}
		rec.Stamp()
		if err := ledger.Append(*ledPath, rec, nil); err != nil {
			fail(err)
		}
		fmt.Printf("ledger record appended to %s\n", *ledPath)
	}
}

// timeSession runs tests against a fresh fault set rounds times and
// returns the best wall time in nanoseconds and the last round's stats.
func timeSession(s *fsim.Simulator, tests []scan.Test, reps []fault.Fault, o fsim.Options, rounds int) (best int64, st fsim.RunStats) {
	best = -1
	for r := 0; r < rounds; r++ {
		fs := fault.NewSet(reps)
		t0 := time.Now()
		var err error
		st, err = s.Run(tests, fs, o)
		el := time.Since(t0).Nanoseconds()
		if err != nil {
			fail(err)
		}
		if best < 0 || el < best {
			best = el
		}
	}
	return best, st
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "benchfsim: %v\n", err)
	os.Exit(1)
}
