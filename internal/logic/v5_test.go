package logic

import "testing"

var all5 = []V5{Zero, One, D, Dbar, X}

func TestV5Strings(t *testing.T) {
	want := map[V5]string{Zero: "0", One: "1", D: "D", Dbar: "D'", X: "X"}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
	}
	if V5(9).String() != "?" {
		t.Errorf("invalid value String = %q", V5(9).String())
	}
}

func TestAnd5Table(t *testing.T) {
	cases := []struct{ a, b, want V5 }{
		{Zero, Zero, Zero}, {Zero, One, Zero}, {Zero, D, Zero}, {Zero, Dbar, Zero}, {Zero, X, Zero},
		{One, One, One}, {One, D, D}, {One, Dbar, Dbar}, {One, X, X},
		{D, D, D}, {D, Dbar, Zero}, {D, X, X},
		{Dbar, Dbar, Dbar}, {Dbar, X, X},
		{X, X, X},
	}
	for _, c := range cases {
		if got := And5(c.a, c.b); got != c.want {
			t.Errorf("And5(%s,%s) = %s, want %s", c.a, c.b, got, c.want)
		}
		if got := And5(c.b, c.a); got != c.want {
			t.Errorf("And5(%s,%s) = %s, want %s (commuted)", c.b, c.a, got, c.want)
		}
	}
}

func TestOr5Table(t *testing.T) {
	cases := []struct{ a, b, want V5 }{
		{One, Zero, One}, {One, D, One}, {One, X, One},
		{Zero, Zero, Zero}, {Zero, D, D}, {Zero, Dbar, Dbar}, {Zero, X, X},
		{D, D, D}, {D, Dbar, One}, {D, X, X},
		{Dbar, Dbar, Dbar},
		{X, X, X},
	}
	for _, c := range cases {
		if got := Or5(c.a, c.b); got != c.want {
			t.Errorf("Or5(%s,%s) = %s, want %s", c.a, c.b, got, c.want)
		}
		if got := Or5(c.b, c.a); got != c.want {
			t.Errorf("Or5(%s,%s) = %s, want %s (commuted)", c.b, c.a, got, c.want)
		}
	}
}

func TestNot5(t *testing.T) {
	want := map[V5]V5{Zero: One, One: Zero, D: Dbar, Dbar: D, X: X}
	for in, out := range want {
		if got := Not5(in); got != out {
			t.Errorf("Not5(%s) = %s, want %s", in, got, out)
		}
		if got := in.Invert(); got != out {
			t.Errorf("%s.Invert() = %s, want %s", in, got, out)
		}
	}
}

func TestXor5(t *testing.T) {
	cases := []struct{ a, b, want V5 }{
		{Zero, Zero, Zero}, {Zero, One, One}, {One, One, Zero},
		{D, Zero, D}, {D, One, Dbar}, {D, D, Zero}, {D, Dbar, One},
		{Dbar, Dbar, Zero}, {X, Zero, X}, {X, D, X},
	}
	for _, c := range cases {
		if got := Xor5(c.a, c.b); got != c.want {
			t.Errorf("Xor5(%s,%s) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestDeMorgan5(t *testing.T) {
	for _, a := range all5 {
		for _, b := range all5 {
			lhs := Not5(And5(a, b))
			rhs := Or5(Not5(a), Not5(b))
			if lhs != rhs {
				t.Errorf("De Morgan fails for (%s,%s): %s vs %s", a, b, lhs, rhs)
			}
		}
	}
}

func TestV5Predicates(t *testing.T) {
	for _, v := range all5 {
		if v.IsError() != (v == D || v == Dbar) {
			t.Errorf("IsError(%s) wrong", v)
		}
		if v.Known() != (v != X) {
			t.Errorf("Known(%s) wrong", v)
		}
	}
}

// TestV5TablesPerMachine checks every table entry against an independent
// per-machine evaluation: decode each operand into its (good, faulty)
// bits, apply the Boolean operator to each machine, and re-encode, with
// any unknown machine value giving X. It also pins the absorbing values
// the PODEM engine's early exits rely on.
func TestV5TablesPerMachine(t *testing.T) {
	bits := func(v V5) (g, f int) {
		switch v {
		case Zero:
			return 0, 0
		case One:
			return 1, 1
		case D:
			return 1, 0
		case Dbar:
			return 0, 1
		}
		return -1, -1
	}
	enc := func(g, f int) V5 {
		switch {
		case g < 0 || f < 0:
			return X
		case g == f && g == 0:
			return Zero
		case g == f:
			return One
		case g == 1:
			return D
		}
		return Dbar
	}
	// and3/or3/xor3 over {0, 1, unknown(-1)}.
	and := func(a, b int) int {
		if a == 0 || b == 0 {
			return 0
		}
		if a < 0 || b < 0 {
			return -1
		}
		return 1
	}
	or := func(a, b int) int {
		if a == 1 || b == 1 {
			return 1
		}
		if a < 0 || b < 0 {
			return -1
		}
		return 0
	}
	xor := func(a, b int) int {
		if a < 0 || b < 0 {
			return -1
		}
		return a ^ b
	}
	for _, a := range all5 {
		ag, af := bits(a)
		not := func(x int) int {
			if x < 0 {
				return -1
			}
			return 1 - x
		}
		if got, want := Not5(a), enc(not(ag), not(af)); got != want {
			t.Errorf("Not5(%s) = %s, want %s", a, got, want)
		}
		for _, b := range all5 {
			bg, bf := bits(b)
			if got, want := And5(a, b), enc(and(ag, bg), and(af, bf)); got != want {
				t.Errorf("And5(%s,%s) = %s, want %s", a, b, got, want)
			}
			if got, want := Or5(a, b), enc(or(ag, bg), or(af, bf)); got != want {
				t.Errorf("Or5(%s,%s) = %s, want %s", a, b, got, want)
			}
			if got, want := Xor5(a, b), enc(xor(ag, bg), xor(af, bf)); got != want {
				t.Errorf("Xor5(%s,%s) = %s, want %s", a, b, got, want)
			}
		}
		if And5(Zero, a) != Zero || Or5(One, a) != One || Xor5(X, a) != X {
			t.Errorf("absorbing value fails for %s", a)
		}
	}
}
