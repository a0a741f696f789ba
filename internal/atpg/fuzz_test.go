package atpg

import (
	"testing"

	"limscan/internal/bmark"
	"limscan/internal/fault"
)

// podemSpec decodes a circuit shape from the fuzzer's raw bits, clamped
// into the generator's valid envelope (the same envelope as the fault
// simulator's fuzz targets): 1-8 PIs, 1-8 POs, 1-16 FFs and a 4-67 gate
// cloud. Bit 16 picks the backtrack limit: 7 (aborts common) or 300.
func podemSpec(seed, shape uint64) (bmark.Spec, int) {
	pis := 1 + int(shape&7)
	pos := 1 + int((shape>>3)&7)
	ffs := 1 + int((shape>>6)&15)
	cloud := 4 + int((shape>>10)&63)
	limit := digestLimits[(shape>>16)&1]
	return bmark.Spec{
		Name:  "fuzz",
		PIs:   pis,
		POs:   pos,
		FFs:   ffs,
		Gates: pos + ffs + cloud,
		Seed:  seed,
	}, limit
}

// bruteMaxSources bounds the circuits whose verdicts are checked against
// exhaustive enumeration (2^sources assignments per fault).
const bruteMaxSources = 12

// FuzzPODEM checks the event-driven PODEM engine on generated circuits:
// every implication of every search over the collapsed stuck-at faults
// (and the first transition faults, through the two-frame engine) must
// equal a full re-evaluation, and on circuits with at most 12 sources
// every non-aborted verdict must agree with exhaustive enumeration.
func FuzzPODEM(f *testing.F) {
	f.Add(uint64(101), uint64(2|1<<3|3<<6|20<<10))
	f.Add(uint64(202), uint64(5|0<<3|8<<6|46<<10|1<<16))
	f.Add(uint64(303), uint64(1|4<<3|11<<6|59<<10))
	f.Add(uint64(404), uint64(7|2<<3|5<<6|37<<10|1<<16))
	f.Add(uint64(505), uint64(3|3<<3|15<<6|63<<10|1<<16))
	f.Add(uint64(606), uint64(4|1<<3|6<<6|25<<10))
	f.Fuzz(func(t *testing.T, seed, shape uint64) {
		spec, limit := podemSpec(seed, shape)
		c, err := bmark.Generate(spec)
		if err != nil {
			t.Fatalf("generator rejected in-envelope spec %+v: %v", spec, err)
		}
		e := New(c)
		e.BacktrackLimit = limit
		watchImply(t, e)
		brute := len(c.ScanSources()) <= bruteMaxSources
		for _, flt := range collapsed(c) {
			v, _ := e.Generate(flt)
			if !brute || v == Aborted {
				continue
			}
			if want := bruteTestable(c, flt); (v == Testable) != want {
				t.Errorf("fault %s: PODEM %v, exhaustive enumeration testable=%v", flt.Pretty(c), v, want)
			}
		}

		te, err := NewTransEngine(c)
		if err != nil {
			t.Fatal(err)
		}
		te.eng.BacktrackLimit = limit
		watchImply(t, te.eng)
		trans := fault.TransitionUniverse(c)
		for _, flt := range trans[:min(len(trans), 16)] {
			te.Generate(flt)
		}
	})
}
