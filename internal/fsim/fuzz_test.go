package fsim

import (
	"testing"

	"limscan/internal/bmark"
	"limscan/internal/circuit"
	"limscan/internal/fault"
	"limscan/internal/obs"
	"limscan/internal/scan"
)

// fuzzSpec decodes a circuit shape from the fuzzer's raw bits, clamped
// into the generator's valid envelope so every input is a legal spec:
// 1-8 PIs, 1-8 POs, 1-16 FFs, a 4-67 gate cloud, and a with/without
// limited-scan toggle.
func fuzzSpec(seed, shape uint64) (bmark.Spec, bool) {
	pis := 1 + int(shape&7)
	pos := 1 + int((shape>>3)&7)
	ffs := 1 + int((shape>>6)&15)
	cloud := 4 + int((shape>>10)&63)
	withScans := (shape>>16)&1 == 1
	return bmark.Spec{
		Name:  "fuzz",
		PIs:   pis,
		POs:   pos,
		FFs:   ffs,
		Gates: pos + ffs + cloud,
		Seed:  seed,
	}, withScans
}

// FuzzDifferential cross-checks the bit-parallel simulator against the
// scalar oracle on generated random circuits — different interface
// shapes, gate mixes and scan-chain lengths, with and without limited
// scan operations — and simultaneously checks the sharded path against
// the serial fault-parallel one on the same workload. The sharded run's
// kernel is itself fuzz input (bit 17 forces pattern-parallel, else bit
// 18 lets Run choose, else fault-parallel), so the kernel differential
// rides the same corpus. This is the repository's main guard against simulator
// regressions; the checked-in corpus under testdata/fuzz covers the
// shapes the pre-fuzzing deterministic test used to pin.
func FuzzDifferential(f *testing.F) {
	// The former TestFuzzDifferential population, re-encoded: (seed,
	// shape) pairs spanning small/wide interfaces, deep/shallow clouds,
	// and both scan modes — plus pattern-parallel shapes.
	f.Add(uint64(101), uint64(2|1<<3|3<<6|20<<10))
	f.Add(uint64(202), uint64(5|0<<3|8<<6|46<<10|1<<16))
	f.Add(uint64(303), uint64(1|4<<3|11<<6|59<<10))
	f.Add(uint64(404), uint64(7|2<<3|5<<6|37<<10|1<<16))
	f.Add(uint64(505), uint64(3|3<<3|15<<6|63<<10|1<<16))
	f.Add(uint64(606), uint64(4|1<<3|6<<6|25<<10|1<<16|1<<17))
	f.Add(uint64(707), uint64(2|2<<3|10<<6|40<<10|1<<17|1<<18))
	f.Fuzz(func(t *testing.T, seed, shape uint64) {
		spec, withScans := fuzzSpec(seed, shape)
		c, err := bmark.Generate(spec)
		if err != nil {
			t.Fatalf("generator rejected in-envelope spec %+v: %v", spec, err)
		}
		reps, _ := fault.Collapse(c, fault.Universe(c))
		tests := randomTests(c, 3, 5, withScans, seed^0xABCD)

		serial := fault.NewSet(reps)
		s := New(c)
		sstats, err := s.Run(tests, serial, Options{Mode: FaultParallel, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}

		// Sharded run on the same simulator: small batches force real
		// sharding even on tiny universes, and bits 17/18 of the shape
		// word swap the kernel under the shards.
		shardedOpts := Options{Mode: FaultParallel, Workers: 4, FaultsPerPass: 7}
		switch {
		case (shape>>17)&1 == 1:
			shardedOpts.Mode = PatternParallel
		case (shape>>18)&1 == 1:
			shardedOpts.Mode = Auto
		}
		sharded := fault.NewSet(reps)
		pstats, err := s.Run(tests, sharded, shardedOpts)
		if err != nil {
			t.Fatal(err)
		}
		if sstats.Detected != pstats.Detected || sstats.Cycles != pstats.Cycles {
			t.Errorf("sharded stats %+v, serial %+v", pstats, sstats)
		}

		mismatches := 0
		for i, fa := range reps {
			want := refDetects(c, tests, fa)
			got := serial.State[i] == fault.Detected
			if serial.State[i] != sharded.State[i] {
				t.Errorf("fault %s: serial=%v sharded=%v", fa.Pretty(c), serial.State[i], sharded.State[i])
			}
			if got != want {
				mismatches++
				if mismatches <= 3 {
					t.Errorf("scans=%v fault %s: parallel=%v reference=%v",
						withScans, fa.Pretty(c), got, want)
				}
			}
		}
		if mismatches > 3 {
			t.Errorf("scans=%v: %d total mismatches", withScans, mismatches)
		}
	})
}

// FuzzPPSFP is the dedicated pattern-parallel differential: on generated
// circuits it compares the pattern-parallel kernel against the
// fault-parallel one over a fuzzed session size, so lane
// boundaries (empty, partial, exactly full, multi-group sessions) are
// explored beyond the fixed counts TestParallelPatternOddCounts pins.
// An observer is attached, so the comparison covers the per-site split
// (DetectedAtPO/LimitedScan/ScanOut) as well as the states. The tests
// come from scheduleMixTests: mixed lengths, and equal-length neighbours
// that differ only in their limited-scan schedules, so every pattern
// word mixes per-lane shift counts. The seed corpus brackets the 64-lane
// word: 1, 63 and 65 tests.
func FuzzPPSFP(f *testing.F) {
	f.Add(uint64(11), uint64(3|2<<3|7<<6|30<<10|1<<16), uint(1))
	f.Add(uint64(22), uint64(5|1<<3|4<<6|22<<10), uint(63))
	f.Add(uint64(33), uint64(2|3<<3|9<<6|50<<10|1<<16), uint(65))
	f.Add(uint64(44), uint64(6|4<<3|12<<6|41<<10), uint(130))
	f.Fuzz(func(t *testing.T, seed, shape uint64, n uint) {
		spec, _ := fuzzSpec(seed, shape)
		c, err := bmark.Generate(spec)
		if err != nil {
			t.Fatalf("generator rejected in-envelope spec %+v: %v", spec, err)
		}
		reps, _ := fault.Collapse(c, fault.Universe(c))
		// 0..130 spans the empty session through multi-word groups while
		// keeping the scalar work bounded.
		tests := scheduleMixTests(c, int(n%131), seed^0x7777)

		base := fault.NewSet(reps)
		s := New(c)
		bstats, err := s.Run(tests, base, Options{Mode: FaultParallel, Workers: 1, Obs: obs.New(nil, nil)})
		if err != nil {
			t.Fatal(err)
		}

		pp := fault.NewSet(reps)
		pstats, err := s.Run(tests, pp, Options{Mode: PatternParallel, Workers: 1, Obs: obs.New(nil, nil)})
		if err != nil {
			t.Fatal(err)
		}
		if bstats != pstats {
			t.Errorf("pattern-parallel stats %+v, fault-parallel %+v", pstats, bstats)
		}
		for i, fa := range reps {
			if base.State[i] != pp.State[i] {
				t.Errorf("n=%d fault %s: fault-parallel=%v pattern-parallel=%v",
					int(n%131), fa.Pretty(c), base.State[i], pp.State[i])
			}
		}
	})
}

// scheduleMixTests builds n tests in runs of equal length: runs of 1-70
// tests (so a run can straddle the 64-lane word), 1-4 vectors each.
// Within a run every test repeats the run's scan-in state and vectors
// and differs only in its limited-scan schedule, which cycles through a
// nil Shift, an explicit all-zero schedule and random schedules whose
// per-frame shift counts are 0, the full chain length m, or uniform in
// [0, m].
func scheduleMixTests(c *circuit.Circuit, n int, seed uint64) []scan.Test {
	rng := seed
	next := func() uint64 {
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	m := c.NumSV()
	var tests []scan.Test
	for len(tests) < n {
		run := 1 + int(next()%70)
		base := randomTests(c, 1, 1+int(next()%4), false, next())[0]
		for i := 0; i < run && len(tests) < n; i++ {
			t := scan.Test{SI: base.SI, T: base.T}
			switch kind := next() % 4; {
			case kind == 1:
				t.Shift = make([]int, t.Len())
				t.Fill = make([][]uint8, t.Len())
			case kind >= 2:
				t.Shift = make([]int, t.Len())
				t.Fill = make([][]uint8, t.Len())
				for u := 1; u < t.Len(); u++ {
					var sh int
					switch next() % 3 {
					case 0:
						sh = 0
					case 1:
						sh = m
					default:
						sh = int(next() % uint64(m+1))
					}
					t.Shift[u] = sh
					t.Fill[u] = make([]uint8, sh)
					for k := range t.Fill[u] {
						t.Fill[u][k] = uint8(next() & 1)
					}
				}
			}
			tests = append(tests, t)
		}
	}
	return tests
}

// TestFuzzTransitionDifferential repeats the fuzz cross-check for the
// transition fault model.
func TestFuzzTransitionDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz differential skipped in -short mode")
	}
	specs := []bmark.Spec{
		{Name: "tf1", PIs: 3, POs: 2, FFs: 4, Gates: 30, Seed: 111},
		{Name: "tf2", PIs: 6, POs: 1, FFs: 9, Gates: 60, Seed: 222},
		{Name: "tf3", PIs: 2, POs: 5, FFs: 12, Gates: 80, Seed: 333},
	}
	for _, spec := range specs {
		c, err := bmark.Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		universe := fault.TransitionUniverse(c)
		for _, withScans := range []bool{false, true} {
			tests := randomTests(c, 3, 6, withScans, spec.Seed^0x5A5A)
			fs := fault.NewSet(universe)
			s := New(c)
			if _, err := s.Run(tests, fs, Options{}); err != nil {
				t.Fatal(err)
			}
			for i, f := range universe {
				want := refDetectsTransition(c, tests, f)
				got := fs.State[i] == fault.Detected
				if got != want {
					t.Errorf("%s scans=%v fault %s: parallel=%v reference=%v",
						spec.Name, withScans, f.Pretty(c), got, want)
				}
			}
		}
	}
}
