package atpg

import (
	"fmt"

	"limscan/internal/circuit"
	"limscan/internal/fault"
	"limscan/internal/logic"
)

// TransCube is a deterministic two-vector launch-on-capture test for a
// transition fault: scan in State, apply V0 (establishing the launch
// value), then V1 at speed (launching the transition whose late arrival
// the capture observes). Unassigned positions are don't-cares.
type TransCube struct {
	State []logic.V5
	V0    []logic.V5
	V1    []logic.V5
}

// Concretize fills don't-cares with the given bit.
func (tc TransCube) Concretize(fill uint8) (state, v0, v1 logic.Vec) {
	conv := func(vs []logic.V5) logic.Vec {
		v := logic.NewVec(len(vs))
		for i, x := range vs {
			v.Set(i, v5bit(x, fill))
		}
		return v
	}
	return conv(tc.State), conv(tc.V0), conv(tc.V1)
}

// TransEngine generates launch-on-capture tests for transition faults by
// running the constrained PODEM search over a two-frame unrolling of the
// combinational core: frame 0 is fed by the scanned-in state and the
// launch vector V0; frame 1's state inputs are frame 0's next-state
// lines and its vector is V1. A slow-to-rise fault on a line is modeled
// as "frame-0 copy of the line is 0" (the launch constraint) plus "the
// frame-1 copy is stuck at 0" (the late edge), observed at frame 1's
// outputs and captured state.
//
// Verdicts are Testable (with a verified two-vector cube) or Aborted —
// the two-phase model cannot prove untestability of the sequential
// original, so no Untestable claims are made.
type TransEngine struct {
	c   *circuit.Circuit // original circuit
	c2  *circuit.Circuit // two-frame unrolling
	eng *Engine

	// f0 and f1 map original gate IDs to their frame-0 / frame-1 copies.
	f0, f1 []int
	// launch is the current search's launch-value constraint.
	launch lineConstraint
}

// NewTransEngine builds the two-frame model for c.
func NewTransEngine(c *circuit.Circuit) (*TransEngine, error) {
	b := circuit.NewBuilder(c.Name + "_2x")
	// Scanned-in state: one plain input per flip-flop (frame 0's PPIs).
	for _, d := range c.DFFs {
		b.AddInput("si_" + c.Gates[d].Name)
	}
	for _, id := range c.Inputs {
		b.AddInput("p0_" + c.Gates[id].Name)
	}
	for _, id := range c.Inputs {
		b.AddInput("p1_" + c.Gates[id].Name)
	}
	// frameName resolves an original fanin to its name within a frame:
	// PIs and DFF outputs map to frame-specific sources, gates to their
	// frame copies.
	frameName := func(frame int, id int) string {
		g := &c.Gates[id]
		switch {
		case g.Type == circuit.PI && frame == 0:
			return "p0_" + g.Name
		case g.Type == circuit.PI:
			return "p1_" + g.Name
		case g.Type == circuit.DFF && frame == 0:
			return "si_" + g.Name
		case g.Type == circuit.DFF:
			// Frame 1's state is frame 0's captured next state.
			return fmt.Sprintf("f0_%s", c.Gates[g.Fanin[0]].Name)
		default:
			return fmt.Sprintf("f%d_%s", frame, g.Name)
		}
	}
	for frame := 0; frame < 2; frame++ {
		for _, id := range c.EvalOrder() {
			g := &c.Gates[id]
			fanin := make([]string, len(g.Fanin))
			for i, f := range g.Fanin {
				fanin[i] = frameName(frame, f)
			}
			b.AddGate(fmt.Sprintf("f%d_%s", frame, g.Name), g.Type, fanin...)
		}
	}
	// Observation: frame 1's primary outputs, and frame 1's next-state
	// lines through DFF gates (the Engine treats DFF fanins as PPOs).
	for _, id := range c.Outputs {
		b.MarkOutput(frameName(1, id))
	}
	for _, d := range c.DFFs {
		b.AddGate("cap_"+c.Gates[d].Name, circuit.DFF, frameName(1, c.Gates[d].Fanin[0]))
	}
	c2, err := b.Finalize()
	if err != nil {
		return nil, fmt.Errorf("atpg: building two-frame model: %w", err)
	}

	te := &TransEngine{c: c, c2: c2, eng: New(c2)}
	te.f0 = make([]int, c.NumGates())
	te.f1 = make([]int, c.NumGates())
	for id := range c.Gates {
		g := &c.Gates[id]
		if g.Type == circuit.DFF {
			te.f0[id], te.f1[id] = -1, -1
			continue
		}
		var n0, n1 string
		if g.Type == circuit.PI {
			n0, n1 = "p0_"+g.Name, "p1_"+g.Name
		} else {
			n0, n1 = "f0_"+g.Name, "f1_"+g.Name
		}
		i0, ok0 := c2.GateByName(n0)
		i1, ok1 := c2.GateByName(n1)
		if !ok0 || !ok1 {
			return nil, fmt.Errorf("atpg: two-frame model lost %q", g.Name)
		}
		te.f0[id], te.f1[id] = i0, i1
	}
	return te, nil
}

// Generate searches for a launch-on-capture test for the transition
// fault f (which must be a stem fault on a non-DFF line).
func (te *TransEngine) Generate(f fault.Fault) (Verdict, TransCube) {
	if f.Model == fault.StuckAt || f.Pin != fault.Stem ||
		te.c.Gates[f.Gate].Type == circuit.DFF {
		return Aborted, TransCube{}
	}
	launch := logic.Zero // slow-to-rise launches from 0
	stuck := uint8(0)
	if f.Model == fault.SlowToFall {
		launch, stuck = logic.One, 1
	}
	e := te.eng
	e.backtracks = 0
	te.launch = lineConstraint{line: te.f0[f.Gate], want: launch}
	e.start(fault.Fault{Gate: te.f1[f.Gate], Pin: fault.Stem, Stuck: stuck}, &te.launch)
	limit := e.BacktrackLimit
	if limit <= 0 {
		limit = 10000
	}
	v, _ := e.search(limit, true) // never claim Untestable
	if v != Testable {
		return Aborted, TransCube{}
	}
	return Testable, te.cube()
}

// cube extracts the two-frame assignment as a TransCube.
func (te *TransEngine) cube() TransCube {
	e := te.eng
	tc := TransCube{
		State: make([]logic.V5, te.c.NumSV()),
		V0:    make([]logic.V5, te.c.NumPI()),
		V1:    make([]logic.V5, te.c.NumPI()),
	}
	get := func(name string) logic.V5 {
		id, ok := te.c2.GateByName(name)
		if !ok {
			return logic.X
		}
		return e.assigned[id]
	}
	for pos, d := range te.c.DFFs {
		tc.State[pos] = get("si_" + te.c.Gates[d].Name)
	}
	for i, id := range te.c.Inputs {
		tc.V0[i] = get("p0_" + te.c.Gates[id].Name)
		tc.V1[i] = get("p1_" + te.c.Gates[id].Name)
	}
	return tc
}
