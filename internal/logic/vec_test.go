package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecFromString(t *testing.T) {
	v, err := VecFromString("0101")
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 4 {
		t.Fatalf("Len = %d, want 4", v.Len())
	}
	want := []uint8{0, 1, 0, 1}
	for i, b := range want {
		if v.Get(i) != b {
			t.Errorf("bit %d = %d, want %d", i, v.Get(i), b)
		}
	}
	if v.String() != "0101" {
		t.Errorf("String = %q, want 0101", v.String())
	}
}

func TestVecFromStringInvalid(t *testing.T) {
	if _, err := VecFromString("01x1"); err == nil {
		t.Error("expected error for invalid character")
	}
}

func TestMustVecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustVec did not panic on bad input")
		}
	}()
	MustVec("2")
}

func TestVecSetGet(t *testing.T) {
	v := NewVec(130) // spans three words
	v.Set(0, 1)
	v.Set(64, 1)
	v.Set(129, 1)
	if v.OnesCount() != 3 {
		t.Fatalf("OnesCount = %d, want 3", v.OnesCount())
	}
	v.Set(64, 0)
	if v.Get(64) != 0 || v.OnesCount() != 2 {
		t.Errorf("clearing bit 64 failed: count=%d", v.OnesCount())
	}
}

func TestVecOutOfRangePanics(t *testing.T) {
	v := NewVec(8)
	for _, i := range []int{-1, 8, 100} {
		func(i int) {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}(i)
	}
}

func TestShiftRightPaperExample(t *testing.T) {
	// Section 2 of the paper: shifting the s27 state 010 by one position
	// with fill bit 0 yields 001.
	v := MustVec("010")
	out := v.ShiftRight(0)
	if v.String() != "001" {
		t.Errorf("state after shift = %s, want 001", v.String())
	}
	if out != 0 {
		t.Errorf("shifted-out bit = %d, want 0", out)
	}
}

func TestShiftRightScanOut(t *testing.T) {
	// Section 2: state 00010, shifting by two positions scans out bits
	// 0 then 1 (rightmost first).
	v := MustVec("00010")
	if out := v.ShiftRight(0); out != 0 {
		t.Errorf("first shifted-out bit = %d, want 0", out)
	}
	if out := v.ShiftRight(0); out != 1 {
		t.Errorf("second shifted-out bit = %d, want 1", out)
	}
	if v.String() != "00000" {
		t.Errorf("state after two shifts = %s", v.String())
	}
}

func TestShiftRightFullRotation(t *testing.T) {
	// Shifting an n-bit vector n times scans out every original bit in
	// right-to-left order and leaves exactly the fill bits.
	orig := MustVec("1011001")
	v := orig.Clone()
	var outs []uint8
	for i := 0; i < orig.Len(); i++ {
		outs = append(outs, v.ShiftRight(1))
	}
	for i := range outs {
		want := orig.Get(orig.Len() - 1 - i)
		if outs[i] != want {
			t.Errorf("scan-out %d = %d, want %d", i, outs[i], want)
		}
	}
	if v.String() != "1111111" {
		t.Errorf("after full scan-in of ones: %s", v.String())
	}
}

func TestVecCloneIndependent(t *testing.T) {
	v := MustVec("1010")
	w := v.Clone()
	w.Set(0, 0)
	if v.Get(0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestVecEqual(t *testing.T) {
	if !MustVec("0110").Equal(MustVec("0110")) {
		t.Error("equal vectors reported unequal")
	}
	if MustVec("0110").Equal(MustVec("0111")) {
		t.Error("different vectors reported equal")
	}
	if MustVec("011").Equal(MustVec("0110")) {
		t.Error("different lengths reported equal")
	}
}

func TestVecXor(t *testing.T) {
	got := MustVec("0011").Xor(MustVec("0101"))
	if got.String() != "0110" {
		t.Errorf("Xor = %s, want 0110", got.String())
	}
}

func TestVecXorSelfZero(t *testing.T) {
	f := func(bitsrc []bool) bool {
		v := NewVec(len(bitsrc))
		for i, b := range bitsrc {
			if b {
				v.Set(i, 1)
			}
		}
		return v.Xor(v).OnesCount() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShiftPreservesLength(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		v := NewVec(n)
		for i := 0; i < n; i++ {
			v.Set(i, uint8(rng.Intn(2)))
		}
		v.ShiftRight(uint8(rng.Intn(2)))
		if v.Len() != n {
			t.Fatalf("length changed from %d to %d", n, v.Len())
		}
	}
}

func TestShiftRightEmpty(t *testing.T) {
	v := NewVec(0)
	if out := v.ShiftRight(1); out != 0 {
		t.Errorf("empty shift returned %d", out)
	}
}

// TestOrLane packs vectors one per lane and reads every bit back.
func TestOrLane(t *testing.T) {
	vecs := []Vec{MustVec("10110"), MustVec("00000"), MustVec("11111")}
	wide := NewVec(130)
	for _, i := range []int{0, 63, 64, 129} {
		wide.Set(i, 1)
	}
	dst := make([]Word, 5)
	for l, v := range vecs {
		v.OrLane(dst, l+61) // lanes 61-63: the top of the word
	}
	for l, v := range vecs {
		for i := 0; i < v.Len(); i++ {
			if got := Bit(dst[i], l+61); got != v.Get(i) {
				t.Errorf("vec %d bit %d: lane holds %d, want %d", l, i, got, v.Get(i))
			}
		}
	}
	wdst := make([]Word, wide.Len())
	wide.OrLane(wdst, 5)
	for i := range wdst {
		if want := Word(wide.Get(i)) << 5; wdst[i] != want {
			t.Errorf("wide bit %d: word %#x, want %#x", i, wdst[i], want)
		}
	}
}
