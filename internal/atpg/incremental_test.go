package atpg

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"limscan/internal/bmark"
	"limscan/internal/circuit"
	"limscan/internal/fault"
	"limscan/internal/logic"
)

// fullImply is the reference implication: reset every gate to X, then
// evaluate the whole scan view in eval order under the engine's current
// assignments and fault, injecting the fault through the generic pin
// path. It is the evaluation the engine ran on every step before
// implication became event-driven.
func fullImply(e *Engine, ref []logic.V5) {
	c := e.c
	for id := range ref {
		ref[id] = logic.X
	}
	for _, id := range c.ScanSources() {
		v := e.assigned[id]
		if e.f.Gate == id && e.f.Pin == fault.Stem {
			v = pinTransform(v, e.f.Stuck)
		}
		ref[id] = v
	}
	in := func(id, pin int) logic.V5 {
		v := ref[c.Gates[id].Fanin[pin]]
		if e.f.Gate == id && e.f.Pin == pin {
			v = pinTransform(v, e.f.Stuck)
		}
		return v
	}
	for _, id := range c.EvalOrder() {
		g := &c.Gates[id]
		var v logic.V5
		switch g.Type {
		case circuit.And, circuit.Nand:
			v = logic.One
			for p := range g.Fanin {
				v = logic.And5(v, in(id, p))
			}
			if g.Type == circuit.Nand {
				v = logic.Not5(v)
			}
		case circuit.Or, circuit.Nor:
			v = logic.Zero
			for p := range g.Fanin {
				v = logic.Or5(v, in(id, p))
			}
			if g.Type == circuit.Nor {
				v = logic.Not5(v)
			}
		case circuit.Xor, circuit.Xnor:
			v = logic.Zero
			for p := range g.Fanin {
				v = logic.Xor5(v, in(id, p))
			}
			if g.Type == circuit.Xnor {
				v = logic.Not5(v)
			}
		case circuit.Not:
			v = logic.Not5(in(id, 0))
		case circuit.Buf:
			v = in(id, 0)
		case circuit.Const0:
			v = logic.Zero
		case circuit.Const1:
			v = logic.One
		default:
			v = logic.X
		}
		if e.f.Gate == id && e.f.Pin == fault.Stem {
			v = pinTransform(v, e.f.Stuck)
		}
		ref[id] = v
	}
}

// watchImply installs the exactness check on e: after every incremental
// imply the reference evaluation is re-derived and any differing gate
// value fails the test. It also checks the D-frontier restricted to the
// fault cone against a scan of every gate. The returned counter reports
// how many implications were checked.
func watchImply(t testing.TB, e *Engine) *int {
	ref := make([]logic.V5, e.c.NumGates())
	checks := new(int)
	e.checkImply = func(e *Engine) {
		*checks++
		fullImply(e, ref)
		for id := range ref {
			if ref[id] != e.val[id] {
				t.Fatalf("fault %+v: gate %s is %v after incremental imply, full evaluation gives %v",
					e.f, e.c.Gates[id].Name, e.val[id], ref[id])
			}
		}
		var all []int
		for _, id := range e.c.EvalOrder() {
			if e.val[id] != logic.X {
				continue
			}
			for p := range e.c.Gates[id].Fanin {
				if e.pin(id, p).IsError() {
					all = append(all, id)
					break
				}
			}
		}
		if cone := e.dFrontier(); len(cone) != len(all) {
			t.Fatalf("fault %+v: cone D-frontier %v, full scan %v", e.f, cone, all)
		} else {
			for i := range all {
				if cone[i] != all[i] {
					t.Fatalf("fault %+v: cone D-frontier %v, full scan %v", e.f, cone, all)
				}
			}
		}
	}
	return checks
}

// digestCircuits are the registry circuits the PODEM digests cover:
// every circuit up to s1423 and b11, that is, all but the two giants.
func digestCircuits() []string {
	var out []string
	for _, name := range bmark.Names() {
		if name != "s5378" && name != "s35932" {
			out = append(out, name)
		}
	}
	return out
}

// digestLimits are the backtrack limits the digests are taken at: a
// tiny one that aborts often (so abort decisions are pinned) and one
// large enough to finish most searches.
var digestLimits = [2]int{7, 300}

// podemDigest runs Generate on every fault and hashes each (fault,
// verdict, cube, backtracks) record into a short hex string. Equal
// digests mean the search took the same trajectory on every fault.
func podemDigest(e *Engine, faults []fault.Fault) string {
	h := sha256.New()
	for _, f := range faults {
		v, cube := e.Generate(f)
		fmt.Fprintf(h, "%d %d %d %d %v %v %d\n", f.Gate, f.Pin, f.Stuck, v, cube.PI, cube.State, e.Backtracks())
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// transDigest is podemDigest for the two-frame transition engine.
func transDigest(te *TransEngine, faults []fault.Fault) string {
	h := sha256.New()
	for _, f := range faults {
		v, cube := te.Generate(f)
		fmt.Fprintf(h, "%d %d %d %v %v %v %d\n", f.Gate, f.Model, v, cube.State, cube.V0, cube.V1, te.eng.Backtracks())
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// collapsed returns c's collapsed stuck-at fault list.
func collapsed(c *circuit.Circuit) []fault.Fault {
	reps, _ := fault.Collapse(c, fault.Universe(c))
	return reps
}

// podemDigests pins, per circuit, the digest of (fault, verdict, cube,
// backtracks) over every collapsed fault at backtrack limits 7 and 300.
// They were recorded with the full-evaluation engine (the one that
// re-evaluated every gate on every step), so a match proves the
// event-driven engine takes the same search trajectory on every fault.
var podemDigests = []struct {
	circuit string
	faults  int
	digest  [2]string
}{
	{"s27", 35, [2]string{"ac0f4634f2c232b6", "ac0f4634f2c232b6"}},
	{"s208", 420, [2]string{"913c93fc41989661", "71d95b7476e797f9"}},
	{"s298", 521, [2]string{"a4a345634b842bf7", "cb09b7d19a6a7b1d"}},
	{"s344", 718, [2]string{"cd35073edeadca09", "8c468587982c3f4d"}},
	{"s382", 742, [2]string{"ed842131a1632387", "20a0b495d0122f2d"}},
	{"s400", 746, [2]string{"742f8ed5aab34b87", "85cfc33e92ea390c"}},
	{"s420", 863, [2]string{"c14073dff5f4c3f1", "817e84c043914a18"}},
	{"s510", 928, [2]string{"ddba8fad979dfabd", "ee2014889c314309"}},
	{"s641", 1582, [2]string{"9d7dbb125b880ca3", "6c20afbb0686c10d"}},
	{"s820", 1205, [2]string{"54e27e96331aa5e7", "ddd6c38e0b458e22"}},
	{"s953", 1677, [2]string{"36a880bd16cab872", "f8f945a8b3bd7334"}},
	{"s1196", 2235, [2]string{"159ad1ba5e9331d2", "52b54a5d2e2a3211"}},
	{"s1423", 2803, [2]string{"3eda1ffbb559df2b", "fe8c81f556a1579d"}},
	{"b01", 187, [2]string{"41e3dbb892c82b2f", "41e3dbb892c82b2f"}},
	{"b02", 121, [2]string{"b50e389ead78e7c9", "b50e389ead78e7c9"}},
	{"b03", 747, [2]string{"04610c913bee9746", "a40cb236bdbd4f3a"}},
	{"b04", 2767, [2]string{"aa1022cab2c71739", "42216ba70a09d511"}},
	{"b06", 296, [2]string{"6a8f1082c65a5322", "32ab4bb8e1b50eb3"}},
	{"b09", 754, [2]string{"6bf76cffee84f837", "2be46079352c0c5f"}},
	{"b10", 827, [2]string{"38dfa3fd221ab2c6", "13b10340216b6b92"}},
	{"b11", 2944, [2]string{"6b6dd2d3de2f4520", "6fa9928bf2edabf2"}},
}

// transDigests pins the two-frame transition engine the same way, over
// the full transition universe.
var transDigests = []struct {
	circuit string
	digest  [2]string
}{
	{"s27", [2]string{"405f72fa146d241c", "405f72fa146d241c"}},
	{"s208", [2]string{"0c9210d12711fe9e", "fae6f59b4570418f"}},
	{"s298", [2]string{"10c95db3c41e482a", "c96247c03d712c5e"}},
	{"s420", [2]string{"9577f2f036f127a7", "b9f6766ffe4638f6"}},
	{"b01", [2]string{"2362662b4fc77b4f", "864dd3921d860b12"}},
	{"b06", [2]string{"9534cd1f1afc3cfa", "2065dc2fc1b7721c"}},
}

// TestPODEMIncrementalExact runs every collapsed fault of every circuit
// up to s1423 and b11 with the exactness check on, at both digest
// limits, and requires the pinned full-evaluation digests. DFF output
// stem faults exercise the justify path.
func TestPODEMIncrementalExact(t *testing.T) {
	if len(podemDigests) != len(digestCircuits()) {
		t.Fatalf("%d pinned digests for %d circuits", len(podemDigests), len(digestCircuits()))
	}
	for _, tc := range podemDigests {
		t.Run(tc.circuit, func(t *testing.T) {
			t.Parallel()
			c, err := bmark.Load(tc.circuit)
			if err != nil {
				t.Fatal(err)
			}
			reps := collapsed(c)
			if len(reps) != tc.faults {
				t.Fatalf("%d collapsed faults, pinned %d", len(reps), tc.faults)
			}
			for i, limit := range digestLimits {
				e := New(c)
				e.BacktrackLimit = limit
				checks := watchImply(t, e)
				if got := podemDigest(e, reps); got != tc.digest[i] {
					t.Errorf("limit %d: digest %s, full-evaluation engine %s", limit, got, tc.digest[i])
				}
				if *checks == 0 {
					t.Errorf("limit %d: no implication was checked", limit)
				}
			}
		})
	}
}

// TestTransEngineIncrementalExact is the same check for the two-frame
// transition engine (constrained search over the unrolled model).
func TestTransEngineIncrementalExact(t *testing.T) {
	for _, tc := range transDigests {
		t.Run(tc.circuit, func(t *testing.T) {
			t.Parallel()
			c, err := bmark.Load(tc.circuit)
			if err != nil {
				t.Fatal(err)
			}
			te, err := NewTransEngine(c)
			if err != nil {
				t.Fatal(err)
			}
			watchImply(t, te.eng)
			for i, limit := range digestLimits {
				te.eng.BacktrackLimit = limit
				if got := transDigest(te, fault.TransitionUniverse(c)); got != tc.digest[i] {
					t.Errorf("limit %d: digest %s, full-evaluation engine %s", limit, got, tc.digest[i])
				}
			}
		})
	}
}

// TestSearchAllocFree checks that a search allocates nothing per step:
// an untestable fault (no cube is built) costs zero allocations once
// the engine's buffers have grown.
func TestSearchAllocFree(t *testing.T) {
	c := redundant(t)
	e := New(c)
	o, _ := c.GateByName("O")
	f := fault.Fault{Gate: o, Pin: fault.Stem, Stuck: 1}
	e.Generate(f)
	if n := testing.AllocsPerRun(20, func() { e.Generate(f) }); n != 0 {
		t.Errorf("Generate of an untestable fault allocates %.0f times", n)
	}
}
