package logic

// V5 is a value in the five-valued D-calculus used by PODEM:
//
//	Zero — 0 in both the good and the faulty machine
//	One  — 1 in both machines
//	D    — 1 in the good machine, 0 in the faulty machine
//	Dbar — 0 in the good machine, 1 in the faulty machine
//	X    — unassigned / unknown
//
// Internally a V5 is a pair of ternary values (good, faulty), each encoded
// in two bits as 0, 1, or unknown, which makes the gate operator tables
// derivable from a single ternary operator.
type V5 uint8

// The five values of the calculus.
const (
	Zero V5 = iota
	One
	D
	Dbar
	X
)

// String returns the conventional D-calculus symbol.
func (v V5) String() string {
	switch v {
	case Zero:
		return "0"
	case One:
		return "1"
	case D:
		return "D"
	case Dbar:
		return "D'"
	case X:
		return "X"
	}
	return "?"
}

// ternary values: 0, 1, unknown.
type t3 uint8

const (
	t0 t3 = 0
	t1 t3 = 1
	tx t3 = 2
)

// good and faulty decompose v into its per-machine ternary components.
func (v V5) good() t3 {
	switch v {
	case Zero, Dbar:
		return t0
	case One, D:
		return t1
	}
	return tx
}

func (v V5) faulty() t3 {
	switch v {
	case Zero, D:
		return t0
	case One, Dbar:
		return t1
	}
	return tx
}

// compose rebuilds a V5 from per-machine ternary components. Any unknown
// component collapses the composite to X: the calculus does not represent
// half-known values.
func compose(g, f t3) V5 {
	if g == tx || f == tx {
		return X
	}
	switch {
	case g == t0 && f == t0:
		return Zero
	case g == t1 && f == t1:
		return One
	case g == t1 && f == t0:
		return D
	default:
		return Dbar
	}
}

func and3(a, b t3) t3 {
	if a == t0 || b == t0 {
		return t0
	}
	if a == tx || b == tx {
		return tx
	}
	return t1
}

func or3(a, b t3) t3 {
	if a == t1 || b == t1 {
		return t1
	}
	if a == tx || b == tx {
		return tx
	}
	return t0
}

func not3(a t3) t3 {
	switch a {
	case t0:
		return t1
	case t1:
		return t0
	}
	return tx
}

func xor3(a, b t3) t3 {
	if a == tx || b == tx {
		return tx
	}
	if a == b {
		return t0
	}
	return t1
}

// The operator tables, indexed by operand values: every five-valued
// operator is its ternary operator applied per machine, precomputed once
// so that the PODEM engine's inner loop is a lookup.
var and5T, or5T, xor5T [5][5]V5
var not5T [5]V5

func init() {
	for a := Zero; a <= X; a++ {
		not5T[a] = compose(not3(a.good()), not3(a.faulty()))
		for b := Zero; b <= X; b++ {
			and5T[a][b] = compose(and3(a.good(), b.good()), and3(a.faulty(), b.faulty()))
			or5T[a][b] = compose(or3(a.good(), b.good()), or3(a.faulty(), b.faulty()))
			xor5T[a][b] = compose(xor3(a.good(), b.good()), xor3(a.faulty(), b.faulty()))
		}
	}
}

// And5 is the five-valued AND operator. Zero absorbs it.
func And5(a, b V5) V5 { return and5T[a][b] }

// Or5 is the five-valued OR operator. One absorbs it.
func Or5(a, b V5) V5 { return or5T[a][b] }

// Not5 is the five-valued NOT operator.
func Not5(a V5) V5 { return not5T[a] }

// Xor5 is the five-valued XOR operator. X absorbs it.
func Xor5(a, b V5) V5 { return xor5T[a][b] }

// IsError reports whether v carries a fault effect (D or Dbar).
func (v V5) IsError() bool { return v == D || v == Dbar }

// Known reports whether v is fully assigned (not X).
func (v V5) Known() bool { return v != X }

// Invert maps D to Dbar and vice versa, 0 to 1 and vice versa, X to X.
// It is the same operation as Not5 but reads better at call sites that
// deal with inversion parity.
func (v V5) Invert() V5 { return Not5(v) }
