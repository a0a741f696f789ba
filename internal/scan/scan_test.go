package scan

import (
	"testing"

	"limscan/internal/logic"
)

func mkTest(si string, vecs []string, shifts []int) Test {
	t := Test{SI: logic.MustVec(si)}
	for _, v := range vecs {
		t.T = append(t.T, logic.MustVec(v))
	}
	if shifts != nil {
		t.Shift = shifts
		t.Fill = make([][]uint8, len(shifts))
		for u, s := range shifts {
			t.Fill[u] = make([]uint8, s)
		}
	}
	return t
}

func TestTestAccessors(t *testing.T) {
	tt := mkTest("001", []string{"0111", "1001", "0111", "1001", "0100"}, []int{0, 0, 0, 1, 0})
	if tt.Len() != 5 {
		t.Errorf("Len = %d, want 5", tt.Len())
	}
	if tt.ShiftCycles() != 1 {
		t.Errorf("ShiftCycles = %d, want 1", tt.ShiftCycles())
	}
	if tt.LimitedScanUnits() != 1 {
		t.Errorf("LimitedScanUnits = %d, want 1", tt.LimitedScanUnits())
	}
	if err := tt.Validate(4, 3); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Test)
	}{
		{"bad SI", func(tt *Test) { tt.SI = logic.MustVec("01") }},
		{"bad vector", func(tt *Test) { tt.T[1] = logic.MustVec("01") }},
		{"shift count", func(tt *Test) { tt.Shift = tt.Shift[:2] }},
		{"fill count", func(tt *Test) { tt.Fill = tt.Fill[:2] }},
		{"shift at 0", func(tt *Test) { tt.Shift[0] = 1; tt.Fill[0] = []uint8{0} }},
		{"negative shift", func(tt *Test) { tt.Shift[2] = -1 }},
		{"too large shift", func(tt *Test) { tt.Shift[2] = 4; tt.Fill[2] = make([]uint8, 4) }},
		{"fill mismatch", func(tt *Test) { tt.Fill[3] = nil }},
	}
	for _, c := range cases {
		tt := mkTest("001", []string{"0111", "1001", "0111", "1001"}, []int{0, 0, 0, 1})
		c.mod(&tt)
		if err := tt.Validate(4, 3); err == nil {
			t.Errorf("%s: Validate accepted invalid test", c.name)
		}
	}
}

func TestValidateNoScanSchedule(t *testing.T) {
	tt := mkTest("001", []string{"0111"}, nil)
	if err := tt.Validate(4, 3); err != nil {
		t.Errorf("plain test rejected: %v", err)
	}
}

// TestNcyc0AgainstPaperTable5 pins the closed form to exact values from
// Table 5 of the paper.
func TestNcyc0AgainstPaperTable5(t *testing.T) {
	cases := []struct {
		nsv, lA, lB, n int
		want           int64
	}{
		// N_SV = 21 column.
		{21, 8, 16, 64, 4245},
		{21, 8, 32, 64, 5269},
		{21, 16, 32, 64, 5781},
		{21, 8, 64, 64, 7317},
		{21, 16, 64, 64, 7829},
		{21, 8, 16, 128, 8469},
		{21, 32, 64, 64, 8853},
		{21, 8, 32, 128, 10517},
		{21, 8, 128, 64, 11413},
		{21, 16, 32, 128, 11541},
		// N_SV = 74 column.
		{74, 8, 16, 64, 11082},
		{74, 8, 32, 64, 12106},
		{74, 16, 32, 64, 12618},
		{74, 8, 64, 64, 14154},
		{74, 16, 64, 64, 14666},
		{74, 32, 64, 64, 15690},
		{74, 8, 128, 64, 18250},
		{74, 16, 128, 64, 18762},
		{74, 32, 128, 64, 19786},
		{74, 64, 128, 64, 21834},
	}
	for _, c := range cases {
		m := CostModel{NSV: c.nsv}
		if got := m.Ncyc0(c.lA, c.lB, c.n); got != c.want {
			t.Errorf("Ncyc0(NSV=%d, LA=%d, LB=%d, N=%d) = %d, want %d",
				c.nsv, c.lA, c.lB, c.n, got, c.want)
		}
	}
}

// TestNcyc0AgainstPaperTables3And4 pins the closed form to the Ncyc0
// grids of Tables 3 (s208 analog, N_SV = 8) and 4 (s420, N_SV = 16).
func TestNcyc0AgainstPaperTables3And4(t *testing.T) {
	// Table 3, s208: N_SV = 8.
	m := CostModel{NSV: 8}
	if got := m.Ncyc0(8, 16, 64); got != 2568 {
		t.Errorf("s208 Ncyc0(8,16,64) = %d, want 2568", got)
	}
	if got := m.Ncyc0(64, 256, 256); got != 86024 {
		t.Errorf("s208 Ncyc0(64,256,256) = %d, want 86024", got)
	}
	if got := m.Ncyc0(8, 16, 128); got != 5128 {
		t.Errorf("s208 Ncyc0(8,16,128) = %d, want 5128", got)
	}
	// Table 4, s420: N_SV = 16.
	m = CostModel{NSV: 16}
	if got := m.Ncyc0(8, 16, 64); got != 3600 {
		t.Errorf("s420 Ncyc0(8,16,64) = %d, want 3600", got)
	}
	if got := m.Ncyc0(64, 256, 256); got != 90128 {
		t.Errorf("s420 Ncyc0(64,256,256) = %d, want 90128", got)
	}
	if got := m.Ncyc0(8, 32, 128); got != 9232 {
		t.Errorf("s420 Ncyc0(8,32,128) = %d, want 9232", got)
	}
}

func TestSessionCyclesMatchesNcyc0(t *testing.T) {
	// A session of 2N plain tests (N of length LA, N of length LB) must
	// cost exactly Ncyc0.
	const nsv, lA, lB, n = 5, 3, 7, 4
	var tests []Test
	for i := 0; i < n; i++ {
		tt := Test{SI: logic.NewVec(nsv)}
		for u := 0; u < lA; u++ {
			tt.T = append(tt.T, logic.NewVec(2))
		}
		tests = append(tests, tt)
	}
	for i := 0; i < n; i++ {
		tt := Test{SI: logic.NewVec(nsv)}
		for u := 0; u < lB; u++ {
			tt.T = append(tt.T, logic.NewVec(2))
		}
		tests = append(tests, tt)
	}
	m := CostModel{NSV: nsv}
	if got, want := m.SessionCycles(tests), m.Ncyc0(lA, lB, n); got != want {
		t.Errorf("SessionCycles = %d, want %d", got, want)
	}
}

func TestSessionCyclesWithShifts(t *testing.T) {
	tt := mkTest("000", []string{"01", "10", "11"}, []int{0, 2, 1})
	m := CostModel{NSV: 3}
	// 2 complete scans (2*3) + 3 vectors + 3 shift cycles = 12.
	if got := m.SessionCycles([]Test{tt}); got != 12 {
		t.Errorf("SessionCycles = %d, want 12", got)
	}
	if m.SessionCycles(nil) != 0 {
		t.Error("empty session should cost 0")
	}
}

func TestAverageLS(t *testing.T) {
	// Paper: ls = 0.50 means a limited scan every 2 time units.
	a := mkTest("0", []string{"1", "1", "1", "1"}, []int{0, 1, 0, 2})
	b := mkTest("0", []string{"1", "1", "1", "1"}, []int{0, 0, 0, 3})
	var ls LSTally
	ls.Add([]Test{a})
	ls.Add([]Test{b})
	want := 3.0 / 8.0
	if got := ls.Average(); got != want {
		t.Errorf("LSTally.Average = %v, want %v", got, want)
	}
	var empty LSTally
	if empty.Average() != 0 {
		t.Error("ls of nothing should be 0")
	}
}

func TestPlanAccessors(t *testing.T) {
	full := FullScan(5)
	if !full.IsFull() || full.Len() != 5 || full.Total != 5 {
		t.Error("FullScan wrong")
	}
	for i, b := range full.Scanned() {
		if !b {
			t.Errorf("position %d not scanned in full plan", i)
		}
	}
	if err := full.Validate(); err != nil {
		t.Errorf("full plan invalid: %v", err)
	}
	p, err := PartialScan(5, []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.IsFull() || p.Len() != 2 {
		t.Error("partial plan wrong")
	}
	mask := p.Scanned()
	want := []bool{false, true, false, true, false}
	for i := range want {
		if mask[i] != want[i] {
			t.Errorf("Scanned[%d] = %v", i, mask[i])
		}
	}
	if err := p.Validate(); err != nil {
		t.Errorf("partial plan invalid: %v", err)
	}
}

func TestPlanValidateErrors(t *testing.T) {
	bad := []Plan{
		{Total: -1},
		{Total: 3, Chain: []int{0, 0}},
		{Total: 3, Chain: []int{4}},
		{Total: 3, Chain: []int{-1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d accepted", i)
		}
	}
}
