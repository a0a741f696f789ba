package main

import (
	"context"
	"time"

	"limscan/internal/atpg"
	"limscan/internal/bmark"
	"limscan/internal/circuit"
	"limscan/internal/core"
	"limscan/internal/fault"
	"limscan/internal/fsim"
	"limscan/internal/scan"
	"limscan/internal/trace"
)

// The traced replay re-runs a workload's body as direct calls into each
// layer's public functions, in the order the entry point makes them,
// with a benchmark-side span around every call. The spans go to an
// internal/trace recorder, so `perf trace` and Perfetto open the file;
// the replay must reach the body's digest, which is what keeps this
// mirror of core.Runner honest when the runner changes.

// spanCat is the trace category of every replay span.
const spanCat = "layer"

// tracer records nested spans on one track and keeps each span name's
// self time: its duration minus the time its child spans cover.
type tracer struct {
	rec   *trace.Recorder
	track *trace.Track
	open  []time.Duration // child time of each open span, innermost last
	self  map[string]time.Duration
	calls map[string]int
	l     layers
}

// layers holds the counts the replay takes at the layer boundaries.
type layers struct {
	atpgMs                        []float64 // first-pass Generate durations
	atpgAbortedDefault            int
	cacheHits, cacheLookups       int
	pairsTried, pairsSelected     int
	faultsSimulated, batches      int
	faultCycles                   float64 // sum over sessions of faults x cycles
	simTime                       time.Duration
	untestableFinal, abortedFinal int
}

func newTracer() *tracer {
	rec := trace.New()
	return &tracer{
		rec:   rec,
		track: rec.Track(trace.MainTrack),
		self:  make(map[string]time.Duration),
		calls: make(map[string]int),
	}
}

// span runs fn inside a span called name and returns its duration.
func (t *tracer) span(name string, fn func()) time.Duration {
	start := t.rec.Now()
	t.open = append(t.open, 0)
	fn()
	dur := t.rec.Now() - start
	child := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	if len(t.open) > 0 {
		t.open[len(t.open)-1] += dur
	}
	t.self[name] += dur - child
	t.calls[name]++
	t.track.Add(spanCat, name, start, dur)
	return dur
}

// seconds returns the total self time of the named spans in seconds.
func (t *tracer) seconds(name string) float64 { return t.self[name].Seconds() }

// replayRunner mirrors core.Runner: one fault simulator, one PODEM
// engine and the verdict cache shared by every campaign it runs.
type replayRunner struct {
	t        *tracer
	c        *circuit.Circuit
	sim      *fsim.Simulator
	eng      *atpg.Engine
	verdicts map[fault.Fault]atpg.Verdict
	hard     map[fault.Fault]bool
}

// newReplayRunner loads the circuit and builds what core.NewRunner
// builds.
func newReplayRunner(t *tracer, name string) (*replayRunner, error) {
	c, err := load(t, name)
	if err != nil {
		return nil, err
	}
	rr := &replayRunner{t: t, c: c,
		verdicts: make(map[fault.Fault]atpg.Verdict),
		hard:     make(map[fault.Fault]bool),
	}
	t.span("core.new_runner", func() {
		rr.sim = fsim.New(c)
		rr.eng = atpg.New(c)
	})
	return rr, nil
}

func load(t *tracer, name string) (c *circuit.Circuit, err error) {
	t.span("bmark.load", func() { c, err = bmark.Load(name) })
	return c, err
}

func collapse(t *tracer, c *circuit.Circuit) (fs *fault.Set) {
	t.span("fault.collapse", func() {
		reps, _ := fault.Collapse(c, fault.Universe(c))
		fs = fault.NewSet(reps)
	})
	return fs
}

// session runs one fault-simulation session inside a span and counts
// its work.
func session(t *tracer, sim *fsim.Simulator, span string, tests []scan.Test, fs *fault.Set, opts fsim.Options) (st fsim.RunStats, err error) {
	faults := len(fs.Remaining())
	t.l.simTime += t.span(span, func() { st, err = sim.Run(tests, fs, opts) })
	t.l.faultsSimulated += faults
	t.l.batches += st.Batches
	t.l.faultCycles += float64(faults) * float64(st.Cycles)
	return st, err
}

// retryLimit mirrors core.Runner's high-effort PODEM budget.
func retryLimit(c *circuit.Circuit) int {
	limit := 200000000 / (c.NumGates() + 1)
	if limit > 500000 {
		limit = 500000
	}
	if limit < 20000 {
		limit = 20000
	}
	return limit
}

// classify mirrors core.Runner.classifyRemaining: every remaining fault
// is classified once at the default backtrack limit, and at most 32
// aborted faults per call get one retry at the high limit.
func (rr *replayRunner) classify(fs *fault.Set) (untestable, aborted int) {
	l := &rr.t.l
	retries := 32
	for _, i := range fs.Remaining() {
		f := fs.Faults[i]
		l.cacheLookups++
		v, ok := rr.verdicts[f]
		if ok {
			l.cacheHits++
		} else {
			d := rr.t.span("atpg.generate", func() { v, _ = rr.eng.Generate(f) })
			l.atpgMs = append(l.atpgMs, float64(d)/float64(time.Millisecond))
			if v == atpg.Aborted {
				l.atpgAbortedDefault++
			}
			rr.verdicts[f] = v
		}
		if v == atpg.Aborted && !rr.hard[f] && retries > 0 {
			retries--
			rr.hard[f] = true
			saved := rr.eng.BacktrackLimit
			rr.eng.BacktrackLimit = retryLimit(rr.c)
			rr.t.span("atpg.retry", func() { v, _ = rr.eng.Generate(f) })
			rr.eng.BacktrackLimit = saved
			rr.verdicts[f] = v
		}
		switch v {
		case atpg.Untestable:
			fs.State[i] = fault.Untestable
			untestable++
		case atpg.Aborted:
			fs.State[i] = fault.Aborted
			aborted++
		}
	}
	return untestable, aborted
}

// procedure2 mirrors core.Runner.RunProcedure2 on a fresh fault set,
// with the library's default D1 order and limits.
func (rr *replayRunner) procedure2(cfg core.Config) (*core.Result, error) {
	t, l := rr.t, &rr.t.l
	cfg.D1Order = core.AscendingD1()
	cfg.NSameFC = 2
	cfg.MaxIterations = 30
	// core.Runner passes a live context, which fsim polls between batches.
	opts := fsim.Options{Ctx: context.Background()}

	fs := collapse(t, rr.c)
	res := &core.Result{Config: cfg, TotalFaults: len(fs.Faults)}
	var ts0 []scan.Test
	t.span("core.ts0_gen", func() { ts0 = core.GenerateTS0(rr.c, cfg) })
	st, err := session(t, rr.sim, "fsim.ts0_run", ts0, fs, opts)
	if err != nil {
		return nil, err
	}
	res.InitialDetected, res.InitialCycles, res.TotalCycles = st.Detected, st.Cycles, st.Cycles
	res.Untestable, res.Aborted = rr.classify(fs)

	remaining := func() int { return len(fs.Remaining()) }
	nSame := 0
	for iter := 1; remaining() > 0 && iter <= cfg.MaxIterations && nSame < cfg.NSameFC; iter++ {
		res.Iterations = iter
		improved := false
		for _, d1 := range cfg.D1Order {
			if remaining() == 0 {
				break
			}
			var ts []scan.Test
			t.span("core.procedure1", func() { ts = core.InsertLimitedScans(rr.c, ts0, iter, d1, cfg) })
			st, err := session(t, rr.sim, "fsim.search_run", ts, fs, opts)
			if err != nil {
				return nil, err
			}
			l.pairsTried++
			if st.Detected > 0 {
				l.pairsSelected++
				res.Pairs = append(res.Pairs, core.PairResult{I: iter, D1: d1, Detected: st.Detected, Cycles: st.Cycles})
				res.TotalCycles += st.Cycles
				improved = true
			}
		}
		if improved {
			nSame = 0
		} else {
			nSame++
		}
	}
	res.Detected = fs.Count(fault.Detected)
	res.Aborted = fs.Count(fault.Aborted)
	res.Complete = fs.Count(fault.Undetected) == 0
	return res, nil
}

// finalVerdicts counts the cached verdicts that ended untestable or
// aborted.
func (rr *replayRunner) finalVerdicts() {
	for _, v := range rr.verdicts {
		switch v {
		case atpg.Untestable:
			rr.t.l.untestableFinal++
		case atpg.Aborted:
			rr.t.l.abortedFinal++
		}
	}
}

func replayCampaign(t *tracer, circuit string, seed uint64) (string, error) {
	rr, err := newReplayRunner(t, circuit)
	if err != nil {
		return "", err
	}
	res, err := rr.procedure2(campaignConfig(seed))
	if err != nil {
		return "", err
	}
	rr.finalVerdicts()
	return campaignDigest(res)
}

// replayAuto mirrors core.Runner.FirstComplete.
func replayAuto(t *tracer, circuit string, seed uint64) (string, error) {
	rr, err := newReplayRunner(t, circuit)
	if err != nil {
		return "", err
	}
	out := &core.CampaignResult{Circuit: rr.c.Name}
	for _, cb := range core.Combos(rr.c.NumSV()) {
		if out.Tried >= maxCombos {
			break
		}
		res, err := rr.procedure2(core.Config{LA: cb.LA, LB: cb.LB, N: cb.N, Seed: seed})
		if err != nil {
			return "", err
		}
		out.Tried++
		if out.Best == nil || res.Coverage() > out.Best.Coverage() {
			out.Best = res
		}
		if res.Complete {
			out.Chosen = res
			break
		}
	}
	rr.finalVerdicts()
	return autoDigest(out)
}

func replayGrade(t *tracer, circuit string, seed uint64) (string, error) {
	c, err := load(t, circuit)
	if err != nil {
		return "", err
	}
	var sim *fsim.Simulator
	t.span("core.new_runner", func() { sim = fsim.New(c) })
	fs := collapse(t, c)
	var tests []scan.Test
	t.span("core.ts0_gen", func() { tests = core.GenerateTS0(c, gradeConfig(seed)) })
	st, err := session(t, sim, "fsim.ts0_run", tests, fs, fsim.Options{})
	if err != nil {
		return "", err
	}
	return gradeDigest(fs, st)
}
