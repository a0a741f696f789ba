package fsim

import "fmt"

// Mode selects the simulation kernel of a run.
type Mode uint8

const (
	// Auto (the zero value) lets Run pick the kernel per session (see
	// Simulator.Kernel). Production callers leave it there; the explicit
	// kernels exist for differential tests and benchmarks.
	Auto Mode = iota
	// FaultParallel is the classic packing: 63 faults plus the good
	// machine per word, one test at a time.
	FaultParallel
	// PatternParallel is the PPSFP packing: up to 64 test patterns per
	// lane word, one fault at a time, with detection decided by the
	// fault-free-vs-faulty XOR mask at each observation site. It
	// requires a full scan plan, stuck-at faults and exact comparison
	// (no MISR compaction), and produces results byte-identical to
	// FaultParallel (see TestParallelPatternMatchesFaultParallel*).
	PatternParallel
)

// String returns the flag spelling of m.
func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case FaultParallel:
		return "fault-parallel"
	case PatternParallel:
		return "pattern-parallel"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode parses the flag spelling of an explicit kernel.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "fault-parallel":
		return FaultParallel, nil
	case "pattern-parallel":
		return PatternParallel, nil
	}
	return 0, fmt.Errorf("fsim: unknown mode %q (want %q or %q)", s, FaultParallel, PatternParallel)
}
