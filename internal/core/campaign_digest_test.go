package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"limscan/internal/bmark"
	"limscan/internal/fsim"
	"limscan/internal/trace"
)

// campaignDigest hashes every Result field a report is built from —
// fault accounting, TS0, each selected pair with its cycles, the
// coverage curve and the totals — into a short hex string.
func campaignDigest(r *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "faults=%d untestable=%d aborted=%d\n", r.TotalFaults, r.Untestable, r.Aborted)
	fmt.Fprintf(h, "ts0 detected=%d cycles=%d\n", r.InitialDetected, r.InitialCycles)
	for _, p := range r.Pairs {
		fmt.Fprintf(h, "pair I=%d D1=%d detected=%d cycles=%d\n", p.I, p.D1, p.Detected, p.Cycles)
	}
	for _, c := range r.Curve {
		fmt.Fprintf(h, "curve I=%d D1=%d detected=%d cycles=%d coverage=%.17g\n", c.I, c.D1, c.Detected, c.Cycles, c.Coverage)
	}
	fmt.Fprintf(h, "detected=%d cycles=%d ls=%.17g complete=%v iterations=%d\n",
		r.Detected, r.TotalCycles, r.AvgLS, r.Complete, r.Iterations)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// TestCampaignModeInvariant is the campaign-level kernel differential:
// full Procedure 2 campaigns must reproduce digests recorded when every
// session ran the fault-parallel kernel. The simulator picks its kernel
// per session (PPSFP for the packed TS0 and shared-schedule sessions
// these configurations produce, which the test checks happens), so a
// digest change means the kernel choice leaked into a result. The short
// resumeConfig campaigns cover the resume circuits; the "-cli" cases are
// the limscan defaults (LA=8, LB=16, N=64, seed 1).
func TestCampaignModeInvariant(t *testing.T) {
	cli := Config{LA: 8, LB: 16, N: 64, Seed: 1}
	for _, tc := range []struct {
		name, circuit string
		cfg           Config // zero: resumeConfig with the circuit's seed
		digest        string
		pairs         int
		cycles        int64
	}{
		{"s27", "s27", Config{}, "65bf941d40f4ad3b", 2, 207},
		{"s208", "s208", Config{}, "221653ae57394b35", 15, 2124},
		{"s298", "s298", Config{}, "369aaeca9d1a3af4", 15, 2858},
		{"s344", "s344", Config{}, "30bf8b8820941c08", 23, 5312},
		{"s382", "s382", Config{}, "3e844d9c0b83ada6", 31, 7908},
		{"s510", "s510", Config{}, "d664ddd3e89f85dd", 19, 2080},
		{"s298-cli", "s298", cli, "aef0da90a7223c39", 1, 16716},
		{"s641-cli", "s641", cli, "6cf9a4ce5747689f", 11, 118761},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.circuit != "s27" && tc.circuit != "s298" {
				t.Skip("short mode pins s27 and s298 only")
			}
			t.Parallel()
			cfg := tc.cfg
			if cfg.N == 0 {
				spec, _ := bmark.Info(tc.circuit)
				cfg = resumeConfig(spec.Seed)
			}
			r := NewRunner(loadBmark(t, tc.circuit))
			tr := trace.New()
			r.SetTracer(tr)
			res, err := r.RunProcedure2(cfg)
			if err != nil {
				t.Fatal(err)
			}
			kernels := map[int64]int{}
			for _, sp := range tr.Model().Track(trace.MainTrack).Spans {
				if k, ok := sp.Arg("mode"); ok && sp.Name == trace.SpanRun {
					kernels[k]++
				}
			}
			if kernels[int64(fsim.PatternParallel)] == 0 {
				t.Errorf("no session ran the pattern-parallel kernel (kernel counts %v)", kernels)
			}
			if len(res.Pairs) != tc.pairs || res.TotalCycles != tc.cycles {
				t.Errorf("%d pairs, %d cycles; want %d pairs, %d cycles", len(res.Pairs), res.TotalCycles, tc.pairs, tc.cycles)
			}
			if got := campaignDigest(res); got != tc.digest {
				t.Errorf("campaign digest %s, want %s", got, tc.digest)
			}
		})
	}
}
