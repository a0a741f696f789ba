package core

import (
	"fmt"

	"limscan/internal/atpg"
	"limscan/internal/fault"
	"limscan/internal/fsim"
	"limscan/internal/logic"
	"limscan/internal/obs"
	"limscan/internal/scan"
)

// TopOffResult summarizes a deterministic top-off pass.
type TopOffResult struct {
	// Tests are the generated deterministic tests, one per targeted
	// fault that PODEM proved testable (fault dropping applies: a test
	// is only emitted for faults still undetected when their turn comes).
	Tests []scan.Test
	// Detected counts faults the top-off tests newly detected.
	Detected int
	// Cycles is the clock-cycle cost of applying the top-off session.
	Cycles int64
	// Proven counts faults newly proven untestable during the pass.
	Proven int
}

// TopOff complements a random campaign with deterministic tests: for
// every fault still undetected in fs, PODEM generates a test cube, the
// cube is concretized into a one-vector scan test, and the accumulated
// tests are fault-simulated (detecting, along the way, other faults and
// dropping them before their turn). It requires the full-scan plan — the
// cubes assume every state bit is controllable.
//
// The paper leaves deterministic top-off outside its scope (its goal is
// a pure random-pattern generator); this is the standard engineering
// fallback when a fault's random detection probability is impractically
// small.
func (r *Runner) TopOff(fs *fault.Set) (*TopOffResult, error) {
	if !r.plan.IsFull() {
		return nil, fmt.Errorf("core: top-off requires full scan (cubes set every state bit)")
	}
	span := r.obs.StartPhase("topoff")
	res := &TopOffResult{}
	for _, i := range fs.Remaining() {
		if fs.State[i] != fault.Undetected && fs.State[i] != fault.Aborted {
			continue
		}
		f := fs.Faults[i]
		v, ok := r.verdicts[f]
		var cube atpg.TestCube
		if !ok || v == atpg.Testable {
			v, cube = r.eng.Generate(f)
			r.verdicts[f] = v
		} else {
			continue
		}
		switch v {
		case atpg.Untestable:
			fs.State[i] = fault.Untestable
			res.Proven++
			continue
		case atpg.Aborted:
			fs.State[i] = fault.Aborted
			continue
		}
		pi, si := cube.Concretize(0)
		tt := scan.Test{SI: si, T: []logic.Vec{pi}}
		// Simulate immediately so fault dropping prunes later targets.
		st, err := r.sim.Run([]scan.Test{tt}, fs, fsim.Options{Obs: r.obs, Workers: r.workers, Trace: r.tracer})
		if err != nil {
			return nil, err
		}
		res.Tests = append(res.Tests, tt)
		res.Detected += st.Detected
	}
	// Cost the top-off as one session (scan-out of each test overlaps the
	// next scan-in), not as the sum of the isolated simulations above.
	res.Cycles = scan.CostModel{NSV: r.plan.Len()}.SessionCycles(res.Tests)
	span.End()
	r.obs.Counter("topoff_tests_total").Add(int64(len(res.Tests)))
	r.obs.Counter("topoff_detected_total").Add(int64(res.Detected))
	r.obs.Counter("topoff_proven_total").Add(int64(res.Proven))
	r.obs.Counter("topoff_cycles_total").Add(res.Cycles)
	r.obs.Emit(obs.Event{
		Kind: obs.KindTopOff, N: len(res.Tests),
		Detected: res.Detected, Cycles: res.Cycles,
	})
	return res, nil
}

// TopOffTransitions is the transition-fault counterpart of TopOff: the
// two-frame PODEM engine generates launch-on-capture pairs (scan-in,
// V0, V1) for transition faults still undetected in fs. Verdicts for
// transition faults are never Untestable (the two-frame model cannot
// prove sequential redundancy), so unresolved faults stay Aborted.
func (r *Runner) TopOffTransitions(fs *fault.Set) (*TopOffResult, error) {
	if !r.plan.IsFull() {
		return nil, fmt.Errorf("core: top-off requires full scan (cubes set every state bit)")
	}
	if r.trans == nil {
		te, err := atpg.NewTransEngine(r.c)
		if err != nil {
			return nil, err
		}
		r.trans = te
	}
	res := &TopOffResult{}
	for _, i := range fs.Remaining() {
		f := fs.Faults[i]
		if f.Model == fault.StuckAt {
			continue
		}
		v, cube := r.trans.Generate(f)
		if v != atpg.Testable {
			fs.State[i] = fault.Aborted
			continue
		}
		state, v0, v1 := cube.Concretize(0)
		tt := scan.Test{SI: state, T: []logic.Vec{v0, v1}}
		st, err := r.sim.Run([]scan.Test{tt}, fs, fsim.Options{Obs: r.obs, Workers: r.workers, Trace: r.tracer})
		if err != nil {
			return nil, err
		}
		res.Tests = append(res.Tests, tt)
		res.Detected += st.Detected
	}
	res.Cycles = scan.CostModel{NSV: r.plan.Len()}.SessionCycles(res.Tests)
	return res, nil
}
