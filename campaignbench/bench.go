package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"limscan/internal/bmark"
	"limscan/internal/core"
	"limscan/internal/fault"
	"limscan/internal/fsim"
)

// warmupCircuit is the tiny circuit every run first runs its workload
// on, untimed, so code paths and the allocator are warm before timing.
const warmupCircuit = "s27"

// A timed run sets up at least setupReps times and for at least
// setupTime before its first body: one set-up takes milliseconds, too
// short for a steady median or for /proc/stat's 10 ms clock ticks.
const (
	setupReps = 15
	setupTime = time.Second
)

// warmup runs the workload once on the tiny circuit and discards the
// outcome; any failure shows again in the timed operations.
func warmup(w *workload, seed uint64, tmp string) {
	if fx, err := w.setup(warmupCircuit, seed, tmp); err == nil {
		_, _ = fx.body()
	}
}

// timedRun repeats set-up alone, then set-up and body in a fresh
// fixture each, for the given time, and reports the medians of
// steal-adjusted set-up and body time and of peak heap.
func timedRun(w *workload, seed uint64, budget time.Duration, tmp string, log io.Writer) (*result, error) {
	warmup(w, seed, tmp)
	var setups []float64
	block := startWatch()
	for len(setups) < setupReps || time.Since(block.t) < setupTime {
		t0 := time.Now()
		if _, err := w.setup(w.circuit, seed, tmp); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// A set-up is shorter than the slices the hypervisor steals in, so
	// steal hits a few set-ups hard rather than all of them a little:
	// scale the mean, which counts every stolen slice, not the median,
	// which skips them.
	_, _, stolen := block.stop()
	setup := mean(setups) * (1 - stolen)
	fmt.Fprintf(log, "setup reps=%d raw_mean_s=%.6f raw_median_s=%.6f stolen=%.3f\n", len(setups), mean(setups), median(setups), stolen)

	res := &result{}
	var walls, heaps []float64
	var ref string
	var last time.Duration // raw wall time of the last operation
	start := time.Now()
	// Start another operation only while it is expected to end within
	// the budget; the first always runs.
	for len(walls) == 0 || time.Since(start)+last <= budget {
		fx, err := w.setup(w.circuit, seed, tmp)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		hs := startHeapSampler()
		sw := startWatch()
		digest, err := fx.body()
		raw, wall, stolen := sw.stop()
		last = time.Duration(raw * float64(time.Second))
		peak := hs.stop()
		walls = append(walls, wall)
		heaps = append(heaps, peak)
		res.attempted++
		if ref == "" {
			ref = digest
		}
		if err == nil {
			err = w.checkDigest(seed, digest, ref)
		}
		fmt.Fprintf(log, "op %d wall_s=%.4f raw_wall_s=%.4f stolen=%.3f peak_heap_mib=%.2f digest=%q\n",
			len(walls), wall, raw, stolen, peak, digest)
		if err != nil {
			res.failed++
			fmt.Fprintf(log, "op %d FAILED: %v\n", len(walls), err)
		}
	}
	res.metrics = []metric{
		{"wall_s", median(walls)},
		{"setup_s", setup},
		{"peak_heap_mib", median(heaps)},
	}
	return res, nil
}

// tracedRun runs the body once untraced, then the traced replay, then
// the extra measurements some per-layer metrics need, and writes the
// replay's spans to traceFile.
func tracedRun(w *workload, seed uint64, tmp, traceFile string, log io.Writer) (*result, error) {
	warmup(w, seed, tmp)
	res := &result{attempted: 2}

	runtime.GC()
	sw := startWatch()
	fx, err := w.setup(w.circuit, seed, tmp)
	if err != nil {
		return nil, err
	}
	digest, err := fx.body()
	_, untraced, _ := sw.stop()
	if err == nil {
		err = w.checkDigest(seed, digest, digest)
	}
	fmt.Fprintf(log, "untraced set-up and body wall_s=%.4f digest=%q\n", untraced, digest)
	if err != nil {
		res.failed++
		fmt.Fprintf(log, "untraced body FAILED: %v\n", err)
	}

	runtime.GC()
	t := newTracer()
	var replayDigest string
	sw = startWatch()
	replayRaw := t.span("replay", func() { replayDigest, err = w.replay(t, w.circuit, seed) })
	_, traced, _ := sw.stop()
	if err == nil {
		err = w.checkDigest(seed, replayDigest, digest)
	}
	fmt.Fprintf(log, "replay wall_s=%.4f digest=%q\n", traced, replayDigest)
	if err != nil {
		res.failed++
		fmt.Fprintf(log, "replay FAILED: %v\n", err)
	}
	if err := writeTrace(t, traceFile); err != nil {
		return nil, err
	}

	speedup, err := parallelSpeedup(w, seed)
	if err != nil {
		return nil, err
	}
	var ckpt float64
	if w.checkpoints {
		if ckpt, err = checkpointOverhead(fx.runner, campaignConfig(seed), tmp); err != nil {
			return nil, err
		}
	}

	l := &t.l
	p50, tail, pct := 0.0, 0.0, 0.0
	if len(l.atpgMs) > 0 {
		p50 = percentile(l.atpgMs, 50)
		pct = tailPercentile(len(l.atpgMs))
		tail = percentile(l.atpgMs, pct)
	}
	fmt.Fprintf(log, "atpg.generate_tail_ms is p%.4g of n=%d Generate calls\n", pct, len(l.atpgMs))
	var accounted time.Duration
	for name, d := range t.self {
		if name != "replay" {
			accounted += d
		}
	}
	res.metrics = []metric{
		{"bmark.load_s", t.seconds("bmark.load")},
		{"core.new_runner_s", t.seconds("core.new_runner")},
		{"fault.collapse_s", t.seconds("fault.collapse")},
		{"atpg.generate_s", t.seconds("atpg.generate")},
		{"atpg.retry_s", t.seconds("atpg.retry")},
		{"atpg.faults", float64(len(l.atpgMs))},
		{"atpg.untestable", float64(l.untestableFinal)},
		{"atpg.aborted_default", float64(l.atpgAbortedDefault)},
		{"atpg.aborted_final", float64(l.abortedFinal)},
		{"atpg.generate_p50_ms", p50},
		{"atpg.generate_tail_ms", tail},
		{"atpg.generate_tail_pct", pct},
		{"atpg.cache_hit_ratio", ratio(l.cacheHits, l.cacheLookups)},
		{"core.procedure1_s", t.seconds("core.procedure1")},
		{"core.pairs_tried", float64(l.pairsTried)},
		{"core.pair_yield", ratio(l.pairsSelected, l.pairsTried)},
		{"fsim.search_run_s", t.seconds("fsim.search_run")},
		{"fsim.search_sessions", float64(t.calls["fsim.search_run"])},
		{"fsim.lane_fill", ratio(l.faultsSimulated, l.batches*fsim.LanesPerWord)},
		{"fsim.ts0_run_s", t.seconds("fsim.ts0_run")},
		{"fsim.batches", float64(l.batches)},
		{"fsim.fault_cycles_per_s", l.faultCycles / l.simTime.Seconds()},
		{"fsim.parallel_speedup", speedup},
		{"checkpoint.overhead_s", ckpt},
		{"trace.overhead_s", traced - untraced},
		{"replay.unaccounted_s", (replayRaw - accounted).Seconds()},
	}
	return res, nil
}

func writeTrace(t *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parallelSpeedup times the workload's first session on a fresh fault
// set at one worker and at the default worker count, alternating, and
// returns the ratio of the median times.
func parallelSpeedup(w *workload, seed uint64) (float64, error) {
	c, err := bmark.Load(w.circuit)
	if err != nil {
		return 0, err
	}
	cfg := w.ts0(c, seed)
	sim := fsim.New(c)
	reps, _ := fault.Collapse(c, fault.Universe(c))
	tests := core.GenerateTS0(c, cfg)
	var serial, parallel []float64
	var dets [2]int
	start := time.Now()
	// Alternate until three pairs ran or ten seconds passed.
	for len(serial) < 3 && (len(serial) == 0 || time.Since(start) < 10*time.Second) {
		for i, workers := range []int{1, 0} {
			fs := fault.NewSet(reps)
			runtime.GC()
			sw := startWatch()
			st, err := sim.Run(tests, fs, fsim.Options{Workers: workers})
			_, d, _ := sw.stop()
			if err != nil {
				return 0, err
			}
			dets[i] = st.Detected
			if workers == 1 {
				serial = append(serial, d)
			} else {
				parallel = append(parallel, d)
			}
		}
		if dets[0] != dets[1] {
			return 0, fmt.Errorf("serial and parallel sessions disagree: %d vs %d detected", dets[0], dets[1])
		}
	}
	return median(serial) / median(parallel), nil
}

// checkpointOverhead times RunJob with a checkpoint against
// RunProcedure2 without one, alternating three times on a runner whose
// verdict cache the untraced body already filled, so classification
// does not drown the difference.
func checkpointOverhead(r *core.Runner, cfg core.Config, tmp string) (float64, error) {
	var with, without []float64
	for i := 0; i < 3; i++ {
		dir, err := os.MkdirTemp(tmp, "checkpoint-")
		if err != nil {
			return 0, err
		}
		runtime.GC()
		sw := startWatch()
		_, _, err = r.RunJob(context.Background(), cfg, &core.CheckpointOptions{Path: filepath.Join(dir, "campaign.ckpt")})
		_, d, _ := sw.stop()
		with = append(with, d)
		os.RemoveAll(dir)
		if err != nil {
			return 0, err
		}
		runtime.GC()
		sw = startWatch()
		if _, err := r.RunProcedure2(cfg); err != nil {
			return 0, err
		}
		_, d, _ = sw.stop()
		without = append(without, d)
	}
	return median(with) - median(without), nil
}

// heapSampler records the peak of the Go heap's object bytes while a
// body runs.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := uint64(0)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stopc:
				h.done <- float64(peak) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentile is the highest whole percentile of n samples that has
// at least ten samples beyond it, or 100 (the maximum) when no
// percentile has.
func tailPercentile(n int) float64 {
	if n <= 10 {
		return 100
	}
	return math.Floor(100 * float64(n-10) / float64(n))
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
