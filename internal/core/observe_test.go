package core

import (
	"testing"

	"limscan/internal/bmark"
	"limscan/internal/fault"
	"limscan/internal/fsim"
	"limscan/internal/obs"
)

// TestRunProcedure2Observed is the observability smoke test: a full
// campaign against a collector sink must produce a well-ordered event
// stream and a metrics registry that agrees with the returned Result.
func TestRunProcedure2Observed(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collector{}
	o := obs.New(nil, col)
	r := NewRunner(c)
	r.SetObserver(o)
	res, err := r.RunProcedure2(Config{LA: 8, LB: 16, N: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	events := col.Events()
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	if events[0].Kind != obs.KindCampaignStart {
		t.Errorf("first event = %s, want campaign_start", events[0].Kind)
	}
	last := events[len(events)-1]
	if last.Kind != obs.KindCampaignEnd {
		t.Errorf("last event = %s, want campaign_end", last.Kind)
	}
	if last.Detected != res.Detected || last.Cycles != res.TotalCycles {
		t.Errorf("campaign_end (%d detected, %d cycles) disagrees with Result (%d, %d)",
			last.Detected, last.Cycles, res.Detected, res.TotalCycles)
	}

	// Ordering: campaign_start, then phases/iterations with pair events
	// in between, then campaign_end; iteration numbers never decrease,
	// pair events sit inside the iteration that produced them.
	var pairs, iterations int
	lastIter := 0
	for i, e := range events {
		switch e.Kind {
		case obs.KindCampaignStart:
			if i != 0 {
				t.Errorf("campaign_start at position %d", i)
			}
		case obs.KindCampaignEnd:
			if i != len(events)-1 {
				t.Errorf("campaign_end at position %d of %d", i, len(events))
			}
		case obs.KindIteration:
			iterations++
			if e.I != lastIter+1 {
				t.Errorf("iteration %d follows iteration %d", e.I, lastIter)
			}
			lastIter = e.I
		case obs.KindPairSelected, obs.KindPairTried:
			pairs++
			if e.I != lastIter+1 {
				t.Errorf("%s for I=%d emitted outside iteration %d", e.Kind, e.I, lastIter+1)
			}
		}
	}
	if iterations != res.Iterations {
		t.Errorf("iteration events = %d, want %d", iterations, res.Iterations)
	}
	var selected []obs.Event
	for _, e := range events {
		if e.Kind == obs.KindPairSelected {
			selected = append(selected, e)
		}
	}
	if len(selected) != len(res.Pairs) {
		t.Fatalf("pair_selected events = %d, want %d", len(selected), len(res.Pairs))
	}
	for i, p := range res.Pairs {
		e := selected[i]
		if e.I != p.I || e.D1 != p.D1 || e.Detected != p.Detected || e.Cycles != p.Cycles {
			t.Errorf("pair %d event %+v disagrees with result %+v", i, e, p)
		}
	}

	// Counters mirror the Result exactly.
	reg := o.Metrics()
	checks := []struct {
		name string
		want int64
	}{
		{"campaign_cycles_total", res.TotalCycles},
		{"campaign_detected_total", int64(res.Detected)},
		{"campaign_pairs_selected_total", int64(len(res.Pairs))},
		{"campaign_iterations_total", int64(res.Iterations)},
		{"campaign_untestable_total", int64(res.Untestable)},
		{"campaign_runs_total", 1},
		{"fsim_detected_total", int64(res.Detected)},
	}
	for _, ck := range checks {
		if got := reg.Counter(ck.name).Value(); got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, got, ck.want)
		}
	}
	if got := reg.Gauge("campaign_coverage").Value(); got != res.Coverage() {
		t.Errorf("campaign_coverage = %g, want %g", got, res.Coverage())
	}

	// Detection-site attribution covers every detection exactly once.
	siteSum := reg.Counter("fsim_detected_po_total").Value() +
		reg.Counter("fsim_detected_limited_scan_total").Value() +
		reg.Counter("fsim_detected_scan_out_total").Value()
	if siteSum != int64(res.Detected) {
		t.Errorf("site counters sum to %d, want %d", siteSum, res.Detected)
	}

	// The phase breakdown saw every phase of the flow.
	phases := map[string]bool{}
	for _, p := range o.PhaseSummary() {
		phases[p.Name] = true
	}
	for _, want := range []string{"ts0_gen", "ts0_sim", "classify", "procedure1", "fault_sim"} {
		if !phases[want] {
			t.Errorf("phase %q missing from summary %v", want, phases)
		}
	}
}

// TestRunProcedure2Unobserved pins the nil-observer contract: identical
// results, no events, no panics.
func TestRunProcedure2Unobserved(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{LA: 8, LB: 16, N: 64, Seed: 1}
	plain, err := NewRunner(c).RunProcedure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(c)
	r.SetObserver(obs.New(nil, nil))
	observed, err := r.RunProcedure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Detected != observed.Detected || plain.TotalCycles != observed.TotalCycles ||
		len(plain.Pairs) != len(observed.Pairs) {
		t.Errorf("observation changed the campaign: %+v vs %+v", plain, observed)
	}
}

// TestLFSRFallbackIsLoud: an invalid LFSR degree must not silently
// degrade to SplitMix — the observer hears about it.
func TestLFSRFallbackIsLoud(t *testing.T) {
	c, err := bmark.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collector{}
	o := obs.New(nil, col)
	cfg := Config{LA: 4, LB: 8, N: 4, Seed: 1, UseLFSR: true, LFSRDegree: 2, Observer: o}

	// Validate rejects the configuration up front...
	if err := cfg.Validate(); err == nil {
		t.Error("Validate must reject LFSRDegree 2")
	}
	// ...and the generation path, which cannot return an error, records
	// the fallback instead of hiding it.
	if ts := GenerateTS0(c, cfg); len(ts) == 0 {
		t.Fatal("no tests generated")
	}
	if got := o.Counter("rng_lfsr_fallback_total").Value(); got == 0 {
		t.Error("fallback counter not bumped")
	}
	var warned bool
	for _, e := range col.Events() {
		if e.Kind == obs.KindWarning {
			warned = true
		}
	}
	if !warned {
		t.Error("no warning event for the LFSR fallback")
	}

	// A valid degree must not warn.
	col2 := &obs.Collector{}
	o2 := obs.New(nil, col2)
	good := Config{LA: 4, LB: 8, N: 4, Seed: 1, UseLFSR: true, LFSRDegree: 16, Observer: o2}
	GenerateTS0(c, good)
	if got := o2.Counter("rng_lfsr_fallback_total").Value(); got != 0 {
		t.Errorf("valid degree bumped the fallback counter %d times", got)
	}
}

// TestFsimSiteAttribution checks the per-site split on a session that
// has all three observation channels active.
func TestFsimSiteAttribution(t *testing.T) {
	c, err := bmark.Load("s420")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{LA: 8, LB: 16, N: 32, Seed: 7}
	ts0 := GenerateTS0(c, cfg)
	ts := InsertLimitedScans(c, ts0, 1, 2, cfg)

	o := obs.New(nil, nil)
	reps, _ := fault.Collapse(c, fault.Universe(c))
	fs := fault.NewSet(reps)
	st, err := fsim.New(c).Run(ts, fs, fsim.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	sum := st.DetectedAtPO + st.DetectedAtLimitedScan + st.DetectedAtScanOut
	if sum != st.Detected {
		t.Errorf("site split %d+%d+%d = %d, want %d", st.DetectedAtPO,
			st.DetectedAtLimitedScan, st.DetectedAtScanOut, sum, st.Detected)
	}
	if st.Detected == 0 {
		t.Fatal("session detected nothing")
	}

	// Without an observer the split is not computed.
	fs2 := fault.NewSet(reps)
	st2, err := fsim.New(c).Run(ts, fs2, fsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.DetectedAtPO != 0 || st2.DetectedAtLimitedScan != 0 || st2.DetectedAtScanOut != 0 {
		t.Error("site attribution must stay zero on the nil-observer path")
	}
	if st2.Detected != st.Detected {
		t.Errorf("observation changed detections: %d vs %d", st2.Detected, st.Detected)
	}
}

// TestClassifyMetrics checks the ATPG counters against the work
// classifyRemaining does. A one-backtrack default limit makes many
// faults abort, so the 32-retry cap binds: every PODEM run counts one
// verdict and one backtrack observation, retries count separately, and
// a second call over the same set hits the verdict cache and runs
// nothing new beyond the retries the cap deferred.
func TestClassifyMetrics(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(c)
	r.eng.BacktrackLimit = 1
	o := obs.New(nil, nil)
	fs := r.NewFaultSet()
	runs := func() (verdicts, observed, retries int64) {
		s := o.Metrics().Snapshot()
		for _, name := range []string{"atpg_testable_total", "atpg_untestable_total", "atpg_aborted_total"} {
			verdicts += s.Counters[name]
		}
		return verdicts, s.Histograms["atpg_backtracks"].Count, s.Counters["atpg_hard_retries_total"]
	}

	untestable, aborted := r.classifyRemaining(fs, o)
	verdicts, observed, retries := runs()
	if want := int64(len(fs.Faults)) + retries; verdicts != want || observed != want {
		t.Errorf("verdict counters %d, backtrack observations %d, want %d (faults plus retries)", verdicts, observed, want)
	}
	if retries != 32 {
		t.Errorf("atpg_hard_retries_total = %d, want the per-call cap 32", retries)
	}
	if untestable != fs.Count(fault.Untestable) || aborted != fs.Count(fault.Aborted) {
		t.Errorf("returned (%d, %d) disagree with the fault set", untestable, aborted)
	}

	// Same set again: cached verdicts, only deferred retries run.
	r.classifyRemaining(fs, o)
	verdicts2, _, retries2 := runs()
	if verdicts2-verdicts != retries2-retries {
		t.Errorf("second call ran %d PODEM searches for %d retries", verdicts2-verdicts, retries2-retries)
	}

	// The unobserved path classifies identically.
	r2 := NewRunner(c)
	r2.eng.BacktrackLimit = 1
	fs2 := r2.NewFaultSet()
	if u, a := r2.classifyRemaining(fs2, nil); u != untestable || a != aborted {
		t.Errorf("nil observer: (%d, %d), observed run (%d, %d)", u, a, untestable, aborted)
	}
}
