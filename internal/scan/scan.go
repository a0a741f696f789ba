// Package scan defines the test representation of the paper — a test
// tau_i = (SI_i, T_i) with optional limited scan operations — and the
// clock-cycle cost model of Section 3.
//
// Scan semantics follow Section 2: the state is a vector of N_SV bits,
// scan shifts move every bit one position to the right (towards higher
// scan positions), a fresh bit enters at position 0 (the leftmost bit),
// and the bit leaving the last position is observed at the scan output.
package scan

import (
	"fmt"

	"limscan/internal/logic"
)

// Test is one test tau = (SI, T) with a limited-scan schedule. Shift[u]
// is the number of scan shifts performed on the state at time unit u,
// before the vector T[u] is applied (the vector is delayed by Shift[u]
// clock cycles, as in Table 2 of the paper). Shift[0] is always zero:
// time unit 0 immediately follows the complete scan-in. Fill[u] holds the
// Shift[u] fresh bits scanned in, in shift order.
//
// A test with no limited scan operations has nil Shift and Fill.
type Test struct {
	SI    logic.Vec
	T     []logic.Vec
	Shift []int
	Fill  [][]uint8
}

// Len returns the paper's test length: the number of primary input
// vectors in T.
func (t *Test) Len() int { return len(t.T) }

// ShiftCycles returns the total number of clock cycles spent in limited
// scan operations during the test.
func (t *Test) ShiftCycles() int {
	n := 0
	for _, s := range t.Shift {
		n += s
	}
	return n
}

// LimitedScanUnits returns n_ls: the number of time units at which a
// limited scan operation occurs (shift(u) > 0).
func (t *Test) LimitedScanUnits() int {
	n := 0
	for _, s := range t.Shift {
		if s > 0 {
			n++
		}
	}
	return n
}

// Validate checks internal consistency against a circuit interface of
// numPI primary inputs and numSV state variables.
func (t *Test) Validate(numPI, numSV int) error {
	if t.SI.Len() != numSV {
		return fmt.Errorf("scan: SI has %d bits, want %d", t.SI.Len(), numSV)
	}
	for u, v := range t.T {
		if v.Len() != numPI {
			return fmt.Errorf("scan: vector %d has %d bits, want %d", u, v.Len(), numPI)
		}
	}
	if t.Shift != nil {
		if len(t.Shift) != len(t.T) {
			return fmt.Errorf("scan: %d shifts for %d vectors", len(t.Shift), len(t.T))
		}
		if len(t.Fill) != len(t.T) {
			return fmt.Errorf("scan: %d fills for %d vectors", len(t.Fill), len(t.T))
		}
		if len(t.Shift) > 0 && t.Shift[0] != 0 {
			return fmt.Errorf("scan: shift at time unit 0")
		}
		for u, s := range t.Shift {
			if s < 0 || s > numSV {
				return fmt.Errorf("scan: shift(%d) = %d out of range [0,%d]", u, s, numSV)
			}
			if len(t.Fill[u]) != s {
				return fmt.Errorf("scan: fill(%d) has %d bits for shift %d", u, len(t.Fill[u]), s)
			}
		}
	}
	return nil
}

// CostModel computes the clock-cycle accounting of Section 3 for a scan
// chain of NSV flip-flops, assuming the scan and functional clocks share
// one cycle time (the paper's assumption).
type CostModel struct {
	NSV int
}

// SessionCycles returns the number of clock cycles needed to apply the
// given tests back to back in one BIST session: m+1 complete scan
// operations for m tests (scan-out of each test overlaps the scan-in of
// the next), one cycle per primary input vector, and one cycle per
// limited-scan shift.
func (m CostModel) SessionCycles(tests []Test) int64 {
	if len(tests) == 0 {
		return 0
	}
	cyc := int64(len(tests)+1) * int64(m.NSV)
	for i := range tests {
		cyc += int64(tests[i].Len()) + int64(tests[i].ShiftCycles())
	}
	return cyc
}

// Ncyc0 is the paper's closed form for the cost of the base test set TS0:
// (2N+1)·N_SV + N·(L_A + L_B) clock cycles for N tests of length L_A plus
// N tests of length L_B with no limited scan operations.
func (m CostModel) Ncyc0(lA, lB, n int) int64 {
	return int64(2*n+1)*int64(m.NSV) + int64(n)*int64(lA+lB)
}

// LSTally computes the paper's final-column statistic ls: the average
// number of limited-scan time units per test vector, over all the tests
// of all the applied TS(I,D1) sets (TS0 excluded). It counts one set at
// a time, so a caller need not keep the sets themselves.
type LSTally struct {
	units, vecs int64
}

// Add counts one applied TS(I,D1) set.
func (t *LSTally) Add(ts []Test) {
	for i := range ts {
		t.units += int64(ts[i].LimitedScanUnits())
		t.vecs += int64(ts[i].Len())
	}
}

// Average returns ls over the sets added so far; with no vectors it is
// 0.
func (t *LSTally) Average() float64 {
	if t.vecs == 0 {
		return 0
	}
	return float64(t.units) / float64(t.vecs)
}
