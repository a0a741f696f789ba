package core

import (
	"limscan/internal/fault"
	"limscan/internal/fsim"
	"limscan/internal/scan"
)

// CurvePoint is one sample of a coverage-versus-cycles curve.
type CurvePoint struct {
	Tests    int   // tests applied so far
	Cycles   int64 // cumulative clock cycles (session accounting)
	Detected int   // cumulative faults detected
}

// CoverageCurve applies the tests one at a time against fs (with fault
// dropping) and records the cumulative detection count after each test,
// priced with the session cost model (the scan-out of each test overlaps
// the next test's scan-in). The final point's Detected equals what a
// single Run over the whole session reports: per-test chunking observes
// exactly the same values, because each chunk's final scan-out carries
// the same bits the overlapped boundary scan would.
func (r *Runner) CoverageCurve(tests []scan.Test, fs *fault.Set) ([]CurvePoint, error) {
	m := scan.CostModel{NSV: r.plan.Len()}
	var out []CurvePoint
	var detected int
	for i := range tests {
		st, err := r.sim.Run(tests[i:i+1], fs, fsim.Options{Obs: r.obs, Workers: r.workers, Trace: r.tracer})
		if err != nil {
			return nil, err
		}
		detected += st.Detected
		out = append(out, CurvePoint{
			Tests:    i + 1,
			Cycles:   m.SessionCycles(tests[:i+1]),
			Detected: detected,
		})
	}
	return out, nil
}
