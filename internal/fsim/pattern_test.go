package fsim

import (
	"testing"

	"limscan/internal/bmark"
	"limscan/internal/circuit"
	"limscan/internal/fault"
	"limscan/internal/logic"
	"limscan/internal/obs"
	"limscan/internal/scan"
	"limscan/internal/trace"
)

// runSession simulates one session under explicit Options (with an
// observer attached so detection sites are populated) and returns the
// stats and final fault states.
func runSession(t *testing.T, c *circuit.Circuit, reps []fault.Fault, tests []scan.Test, o Options) (RunStats, []fault.Status) {
	t.Helper()
	fs := fault.NewSet(reps)
	o.Obs = obs.New(nil, nil)
	stats, err := New(c).Run(tests, fs, o)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]fault.Status, len(fs.State))
	copy(states, fs.State)
	return stats, states
}

func diffStates(t *testing.T, c *circuit.Circuit, reps []fault.Fault, label string, got, want []fault.Status) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: fault %s state %v, want %v", label, reps[i].Pretty(c), got[i], want[i])
		}
	}
}

// TestParallelPatternMatchesFaultParallelBmarks is the tentpole's
// differential gate: on every registered benchmark circuit, the
// pattern-parallel kernel — serial and sharded across 4 workers — must
// reproduce the fault-parallel RunStats struct
// (detections, batch count, cycle cost, per-site attribution) and the
// per-fault detection states exactly. The "Parallel" name puts it under
// `make paradiff`, so it also runs under -race at GOMAXPROCS 1 and 4.
func TestParallelPatternMatchesFaultParallelBmarks(t *testing.T) {
	for _, name := range bmark.Names() {
		spec, _ := bmark.Info(name)
		if testing.Short() && spec.Gates > 2000 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := bmark.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			reps, _ := fault.Collapse(c, fault.Universe(c))
			n, length := sessionDims(len(c.Gates))
			tests := randomTests(c, n, length, true, spec.Seed^0xA5A5)
			base, baseStates := runSession(t, c, reps, tests, Options{Mode: FaultParallel, Workers: 1})
			cases := []struct {
				label string
				o     Options
			}{
				{"pp/w1", Options{Mode: PatternParallel, Workers: 1}},
				{"pp/w4", Options{Mode: PatternParallel, Workers: 4}},
			}
			for _, tc := range cases {
				stats, states := runSession(t, c, reps, tests, tc.o)
				if stats != base {
					t.Errorf("%s stats = %+v, want %+v", tc.label, stats, base)
				}
				diffStates(t, c, reps, tc.label, states, baseStates)
			}
		})
	}
}

// TestParallelPatternAgainstReference closes the differential triangle:
// the pattern-parallel kernel must agree fault by fault with the naive
// scalar oracle (the fault-parallel kernel's agreement with the same
// oracle is TestDifferentialAgainstReference).
func TestParallelPatternAgainstReference(t *testing.T) {
	c := s27(t)
	reps, _ := fault.Collapse(c, fault.Universe(c))
	for _, withScans := range []bool{false, true} {
		for _, seed := range []uint64{1, 2, 3} {
			tests := randomTests(c, 4, 6, withScans, seed)
			fs := fault.NewSet(reps)
			if _, err := New(c).Run(tests, fs, Options{Mode: PatternParallel}); err != nil {
				t.Fatal(err)
			}
			for i, f := range reps {
				want := refDetects(c, tests, f)
				got := fs.State[i] == fault.Detected
				if got != want {
					t.Errorf("scans=%v seed=%d fault %s: pattern-parallel=%v reference=%v",
						withScans, seed, f.Pretty(c), got, want)
				}
			}
		}
	}
}

// TestParallelPatternOddCounts sweeps session sizes around the lane-word
// boundaries — 1, 63, 64, 65 and 130 tests — so partially filled words,
// exactly full words and multi-group sessions all hit the differential.
func TestParallelPatternOddCounts(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	for _, n := range []int{1, 63, 64, 65, 130} {
		if testing.Short() && n > 64 {
			continue
		}
		tests := randomTests(c, n, 2, true, uint64(n))
		base, baseStates := runSession(t, c, reps, tests, Options{Mode: FaultParallel, Workers: 1})
		stats, states := runSession(t, c, reps, tests, Options{Mode: PatternParallel, Workers: 1})
		if stats != base {
			t.Errorf("n=%d stats = %+v, want %+v", n, stats, base)
		}
		diffStates(t, c, reps, "odd-count", states, baseStates)
	}
}

// TestParallelPatternNoEarlyExit pins the ablation path: with early exit
// disabled both modes still agree (the pattern-parallel kernel must keep
// the first diverged group's verdict even though it sweeps them all).
func TestParallelPatternNoEarlyExit(t *testing.T) {
	c, err := bmark.Load("s344")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	tests := randomTests(c, 70, 3, true, 17)
	base, baseStates := runSession(t, c, reps, tests, Options{Mode: FaultParallel, Workers: 1, NoEarlyExit: true})
	stats, states := runSession(t, c, reps, tests, Options{Mode: PatternParallel, Workers: 1, NoEarlyExit: true})
	if stats != base {
		t.Errorf("NoEarlyExit stats = %+v, want %+v", stats, base)
	}
	diffStates(t, c, reps, "no-early-exit", states, baseStates)
}

// TestParallelPatternZeroTests covers the empty-session corner: the
// fault-parallel kernel still scans out the reset state (so a stuck-at-1
// flip-flop output is detectable with zero tests), and the
// pattern-parallel kernel must reproduce that verdict exactly.
func TestParallelPatternZeroTests(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	base, baseStates := runSession(t, c, reps, nil, Options{Mode: FaultParallel, Workers: 1})
	if base.Detected == 0 {
		t.Fatalf("oracle expectation broken: zero-test session detected nothing (want stuck-at-1 flip-flop outputs)")
	}
	stats, states := runSession(t, c, reps, nil, Options{Mode: PatternParallel, Workers: 1})
	if stats != base {
		t.Errorf("zero-test stats = %+v, want %+v", stats, base)
	}
	diffStates(t, c, reps, "zero-tests", states, baseStates)
}

// TestParallelPatternRejections pins the documented limits of the
// pattern-parallel mode: partial scan plans and transition faults are
// run-time errors with actionable messages, MISR compaction and unknown
// modes fail Validate.
func TestParallelPatternRejections(t *testing.T) {
	c, err := bmark.Load("s344")
	if err != nil {
		t.Fatal(err)
	}

	// Partial plan: scan all but the last state variable.
	partial := scan.Plan{Total: c.NumSV()}
	for p := 0; p < c.NumSV()-1; p++ {
		partial.Chain = append(partial.Chain, p)
	}
	s, err := NewWithPlan(c, partial)
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	fs := fault.NewSet(reps)
	tests := randomTests(c, 1, 2, false, 9)
	for i := range tests {
		// randomTests sizes SI for full scan; rebuild for the short chain.
		si := logic.NewVec(partial.Len())
		for b := 0; b < si.Len(); b++ {
			si.Set(b, tests[i].SI.Get(b))
		}
		tests[i].SI = si
	}
	if _, err := s.Run(tests, fs, Options{Mode: PatternParallel}); err == nil {
		t.Error("pattern-parallel Run accepted a partial scan plan, want error")
	}

	// Transition faults.
	tfs := fault.NewSet(fault.TransitionUniverse(c))
	if _, err := New(c).Run(randomTests(c, 1, 2, false, 9), tfs, Options{Mode: PatternParallel}); err == nil {
		t.Error("pattern-parallel Run accepted transition faults, want error")
	}

	for _, o := range []Options{
		{Mode: PatternParallel, MISRDegree: 16},
		{Mode: Mode(7)},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", o)
		}
	}
}

// TestParallelPatternMetrics checks the kernel observability surface:
// the fsim_mode gauge and the fsim_run span's mode argument record the
// kernel that actually ran, whether forced or chosen, and
// fsim_pattern_groups_total counts the lane words a pattern-parallel
// session packed its tests into (none for a fault-parallel one).
func TestParallelPatternMetrics(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	packed := randomTests(c, 8, 2, false, 3)
	// A TS(I,D1)-shaped session: 128 equal-length tests, each with its
	// own limited-scan schedule, packs into two full words.
	scheduled := randomTests(c, 128, 2, true, 3)
	sparse := alternatingLengths(c, 4)
	for _, tc := range []struct {
		label  string
		o      Options
		tests  []scan.Test
		want   Mode
		groups int64
	}{
		{"forced-fp", Options{Mode: FaultParallel}, packed, FaultParallel, 0},
		{"forced-pp", Options{Mode: PatternParallel}, sparse, PatternParallel, 4},
		{"auto-packed", Options{}, packed, PatternParallel, 1},
		{"auto-scheduled", Options{}, scheduled, PatternParallel, 2},
		{"auto-sparse", Options{}, sparse, FaultParallel, 0},
	} {
		reg := obs.NewRegistry()
		tr := trace.New()
		fs := fault.NewSet(reps)
		tc.o.Workers, tc.o.Obs, tc.o.Trace = 1, obs.New(reg, nil), tr
		if _, err := New(c).Run(tc.tests, fs, tc.o); err != nil {
			t.Fatal(err)
		}
		if got := reg.Gauge("fsim_mode").Value(); got != float64(tc.want) {
			t.Errorf("%s: fsim_mode = %v, want %v", tc.label, got, float64(tc.want))
		}
		if got := runSpanMode(t, tr); got != int64(tc.want) {
			t.Errorf("%s: fsim_run mode = %d, want %d", tc.label, got, tc.want)
		}
		if got := reg.Counter("fsim_pattern_groups_total").Value(); got != tc.groups {
			t.Errorf("%s: fsim_pattern_groups_total = %d, want %d", tc.label, got, tc.groups)
		}
	}
}

// alternatingLengths returns n tests whose lengths alternate between 2
// and 3, so no two neighbours share a pattern group.
func alternatingLengths(c *circuit.Circuit, n int) []scan.Test {
	var tests []scan.Test
	for i := 0; i < n; i++ {
		tests = append(tests, randomTests(c, 1, 2+i%2, true, uint64(i))...)
	}
	return tests
}

// runSpanMode returns the mode argument of the single fsim_run span.
func runSpanMode(t *testing.T, tr *trace.Recorder) int64 {
	t.Helper()
	for _, sp := range tr.Model().Track(trace.MainTrack).Spans {
		if v, ok := sp.Arg("mode"); ok && sp.Name == trace.SpanRun {
			return v
		}
	}
	t.Fatal("no fsim_run span with a mode argument")
	return -1
}

// TestKernelChoice pins the automatic kernel rule: PPSFP exactly for a
// densely packed, full-scan, stuck-at, exact-compare session; the
// fault-parallel kernel everywhere else. Groups are cut by length alone,
// so per-test limited-scan schedules pack as densely as none at all;
// only neighbours of different lengths leave words sparse.
func TestKernelChoice(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	stuck := fault.NewSet(reps)
	full := New(c)
	partial := scan.Plan{Total: c.NumSV()}
	for p := 0; p < c.NumSV()-1; p++ {
		partial.Chain = append(partial.Chain, p)
	}
	part, err := NewWithPlan(c, partial)
	if err != nil {
		t.Fatal(err)
	}
	packed := randomTests(c, 16, 3, false, 1)   // one length: one group of 16
	scheduled := randomTests(c, 16, 3, true, 1) // per-test limited-scan schedules, one group
	sparse := alternatingLengths(c, 16)         // 16 single-test groups
	for _, tc := range []struct {
		label string
		sim   *Simulator
		tests []scan.Test
		fs    *fault.Set
		o     Options
		want  Mode
	}{
		{"packed full-scan session", full, packed, stuck, Options{}, PatternParallel},
		{"per-test limited-scan schedules", full, scheduled, stuck, Options{}, PatternParallel},
		{"alternating lengths", full, sparse, stuck, Options{}, FaultParallel},
		{"partial plan", part, packed, stuck, Options{}, FaultParallel},
		{"transition faults", full, packed, fault.NewSet(fault.TransitionUniverse(c)), Options{}, FaultParallel},
		{"MISR", full, packed, stuck, Options{MISRDegree: 16}, FaultParallel},
		{"zero tests", full, nil, stuck, Options{}, FaultParallel},
		{"forced fault-parallel", full, packed, stuck, Options{Mode: FaultParallel}, FaultParallel},
		{"forced pattern-parallel", full, sparse, stuck, Options{Mode: PatternParallel}, PatternParallel},
	} {
		if got := tc.sim.Kernel(tc.tests, tc.fs, tc.o); got != tc.want {
			t.Errorf("%s: kernel %v, want %v", tc.label, got, tc.want)
		}
	}
}

// TestPPGroups pins the pattern-grouping rules: consecutive equal-length
// tests pack together whatever their limited-scan schedules (nil, all
// zero or shifting), a length change and the lane width split groups.
func TestPPGroups(t *testing.T) {
	mk := func(frames int, shift []int) scan.Test {
		return scan.Test{T: make([]logic.Vec, frames), Shift: shift}
	}
	tests := []scan.Test{
		mk(2, nil),
		mk(2, []int{0, 0}), // explicit all-zero schedule
		mk(2, []int{0, 3}), // a schedule change does not split
		mk(3, nil),         // a length change splits
		mk(2, []int{0, 1}), // and so does the change back
	}
	gs := ppGroups(tests)
	want := [][2]int{{0, 3}, {3, 4}, {4, 5}}
	if len(gs) != len(want) {
		t.Fatalf("ppGroups = %d groups, want %d", len(gs), len(want))
	}
	for i, g := range gs {
		if g.lo != want[i][0] || g.hi != want[i][1] {
			t.Errorf("group %d = [%d,%d), want [%d,%d)", i, g.lo, g.hi, want[i][0], want[i][1])
		}
	}

	many := make([]scan.Test, 70)
	for i := range many {
		many[i] = mk(2, []int{0, i % 3})
	}
	gs = ppGroups(many)
	if len(gs) != 2 || gs[0].hi != 64 || gs[1].lo != 64 || gs[1].hi != 70 {
		t.Errorf("lane cap: groups = %+v, want [0,64) and [64,70)", gs)
	}
}

// TestParallelPatternLazyTraces drives the over-budget path, where no
// trace is prebuilt and each worker rebuilds a group's trace in its own
// arena whenever it switches groups: the verdicts must match the
// fault-parallel kernel's.
func TestParallelPatternLazyTraces(t *testing.T) {
	c, err := bmark.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := fault.Collapse(c, fault.Universe(c))
	tests := randomTests(c, 130, 3, true, 5) // three groups, mixed shifts
	_, want := runSession(t, c, reps, tests, Options{Mode: FaultParallel, Workers: 1})

	s := New(c)
	fs := fault.NewSet(reps)
	rem := fs.Remaining()
	eng, err := s.newPatternEngine(tests, ppGroups(tests), fs.Faults, rem)
	if err != nil {
		t.Fatal(err)
	}
	eng.traces = nil
	w := s.ppWorker(0, eng)
	for lo := 0; lo < len(rem); lo += LanesPerWord {
		batch := rem[lo:min(lo+LanesPerWord, len(rem))]
		det := w.runBatch(fs.Faults, batch, Options{}, nil)
		for j, fi := range batch {
			if det&logic.Lane(j+1) != 0 {
				fs.State[fi] = fault.Detected
			}
		}
	}
	diffStates(t, c, reps, "lazy traces", fs.State, want)
}
