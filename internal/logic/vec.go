package logic

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vec is a packed bit vector of fixed length. It stores one bit per
// position (not bit-parallel words); it is the storage format for scan-in
// states, primary input vectors and circuit states.
//
// Position 0 is the leftmost bit when the vector is rendered as a string,
// matching the paper's convention: the state "001" of s27 has bit 0 = 0,
// bit 1 = 0, bit 2 = 1, and a limited scan shifts bits to the right
// (position i receives the old value of position i-1) with fresh bits
// entering at position 0.
type Vec struct {
	words []uint64
	n     int
}

// NewVec returns an all-zero vector of n bits. n must be >= 0.
func NewVec(n int) Vec {
	if n < 0 {
		panic(fmt.Sprintf("logic: NewVec with negative length %d", n))
	}
	return Vec{words: make([]uint64, (n+63)/64), n: n}
}

// VecFromString parses a vector from a string of '0' and '1' runes.
// Character i of the string becomes bit i.
func VecFromString(s string) (Vec, error) {
	v := NewVec(len(s))
	for i, r := range s {
		switch r {
		case '0':
		case '1':
			v.Set(i, 1)
		default:
			return Vec{}, fmt.Errorf("logic: invalid bit character %q at position %d", r, i)
		}
	}
	return v, nil
}

// MustVec is VecFromString for compile-time-constant literals; it panics
// on malformed input.
func MustVec(s string) Vec {
	v, err := VecFromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Len reports the number of bits in v.
func (v Vec) Len() int { return v.n }

// Get returns bit i as 0 or 1.
func (v Vec) Get(i int) uint8 {
	v.check(i)
	return uint8((v.words[i/64] >> uint(i%64)) & 1)
}

// Set assigns bit i to b (0 or 1; any nonzero b counts as 1).
func (v *Vec) Set(i int, b uint8) {
	v.check(i)
	if b != 0 {
		v.words[i/64] |= 1 << uint(i%64)
	} else {
		v.words[i/64] &^= 1 << uint(i%64)
	}
}

func (v Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("logic: bit index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	w := Vec{words: make([]uint64, len(v.words)), n: v.n}
	copy(w.words, v.words)
	return w
}

// Equal reports whether v and w have the same length and bits.
func (v Vec) Equal(w Vec) bool {
	if v.n != w.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != w.words[i] {
			return false
		}
	}
	return true
}

// OnesCount reports the number of 1 bits.
func (v Vec) OnesCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// OrLane sets lane l of dst[i] for every set bit i of v — one column of
// the transpose that packs one vector per lane of a word slice. dst must
// hold at least v.Len() words.
func (v Vec) OrLane(dst []Word, l int) {
	lane := Lane(l)
	for wi, w := range v.words {
		for w != 0 {
			dst[wi*64+bits.TrailingZeros64(w)] |= lane
			w &= w - 1
		}
	}
}

// ShiftRight performs one scan shift in the paper's convention: every bit
// moves one position to the right (towards higher indices), the supplied
// fill bit enters at position 0, and the bit that falls off the end
// (the old last position) is returned.
func (v *Vec) ShiftRight(fill uint8) (out uint8) {
	if v.n == 0 {
		return 0
	}
	out = v.Get(v.n - 1)
	for i := v.n - 1; i > 0; i-- {
		v.Set(i, v.Get(i-1))
	}
	v.Set(0, fill)
	return out
}

// String renders the vector as a '0'/'1' string with bit 0 leftmost.
func (v Vec) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		b.WriteByte('0' + v.Get(i))
	}
	return b.String()
}

// Xor returns the elementwise XOR of v and w, which must have equal length.
func (v Vec) Xor(w Vec) Vec {
	if v.n != w.n {
		panic(fmt.Sprintf("logic: Xor length mismatch %d vs %d", v.n, w.n))
	}
	out := NewVec(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] ^ w.words[i]
	}
	return out
}
