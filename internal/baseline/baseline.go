// Package baseline implements the comparison scheme of the paper's
// Section 4: scan BIST in the style of references [5] (Tsai, Cheng,
// Bhawmik, DAC 1999) and [6] (Huang, Pomeranz, Reddy, Rajski, ICCAD
// 2000). Tests are random (SI, T) pairs with two test lengths and
// complete scan operations only — no limited scans — applied under a
// fixed clock-cycle budget (500,000 cycles in the papers).
//
// Two features of [5]/[6] are modeled faithfully because the paper's
// comparison leans on them: the flip-flops are arranged in multiple
// balanced scan chains of maximum length 10, so a complete scan operation
// costs at most 10 clock cycles; and the last flip-flop of every chain is
// observed at every time unit, improving observability during at-speed
// sequences.
package baseline

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"limscan/internal/circuit"
	"limscan/internal/errs"
	"limscan/internal/fault"
	"limscan/internal/lfsr"
	"limscan/internal/logic"
	"limscan/internal/obs"
	"limscan/internal/sim"
)

// Config tunes the baseline campaign.
type Config struct {
	// LA and LB are the two test lengths ([6] limits the number of
	// distinct lengths to two). Zero values default to 8 and 16.
	LA, LB int
	// MaxChainLen is the maximum scan chain length. Zero means 10.
	MaxChainLen int
	// Budget is the clock-cycle budget. Zero means 500000.
	Budget int64
	// Seed makes the campaign reproducible.
	Seed uint64
	// Sessions splits the budget across several independently seeded
	// sessions — the "multiple seeds" coverage-improvement technique the
	// paper's introduction lists. Zero or one means a single session.
	Sessions int
	// Observer receives per-session metrics and events (see
	// internal/obs). Nil runs uninstrumented.
	Observer *obs.Campaign
	// Workers is the number of goroutines fault batches are sharded
	// across, as in fsim.Options.Workers: zero means GOMAXPROCS, one
	// forces the serial path, and results are identical at any count
	// (batches partition the remaining faults; detections merge in batch
	// order).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.LA == 0 {
		c.LA = 8
	}
	if c.LB == 0 {
		c.LB = 16
	}
	if c.MaxChainLen == 0 {
		c.MaxChainLen = 10
	}
	if c.Budget == 0 {
		c.Budget = 500000
	}
	return c
}

// Result summarizes a baseline campaign.
type Result struct {
	// Detected counts faults newly detected by the campaign.
	Detected int
	// Tests is the number of (SI, T) tests applied within budget.
	Tests int
	// Cycles is the exact number of clock cycles consumed (at most
	// Budget plus one final scan-out).
	Cycles int64
	// Chains is the number of scan chains used.
	Chains int
}

// test is one pregenerated baseline test.
type test struct {
	si logic.Vec
	t  []logic.Vec
}

// panicHook, when non-nil, is called with the batch index just before a
// worker simulates that batch — the test seam for forcing worker panics
// (see internal/fsim.PanicHook). Production code never sets it.
var panicHook func(batch int)

// Sim runs baseline campaigns for one circuit. Not safe for concurrent
// use.
type Sim struct {
	c      *circuit.Circuit
	ev     *sim.Evaluator
	forces *sim.Forces

	chains [][]int // scan positions per chain, front (fill end) first
	state  []logic.Word

	stateStuck   []laneForce
	captureStuck []laneForce
}

type laneForce struct {
	pos  int
	mask logic.Word
	val  logic.Word
}

// New returns a baseline simulator with flip-flops balanced over
// ceil(N_SV / maxChainLen) scan chains in scan order.
func New(c *circuit.Circuit, maxChainLen int) *Sim {
	if maxChainLen <= 0 {
		maxChainLen = 10
	}
	nsv := c.NumSV()
	nChains := (nsv + maxChainLen - 1) / maxChainLen
	if nChains == 0 {
		nChains = 1
	}
	s := &Sim{
		c:      c,
		ev:     sim.NewEvaluator(c),
		forces: sim.NewForces(c),
		state:  make([]logic.Word, nsv),
	}
	// Deal positions round-robin so chains are balanced to within one.
	s.chains = make([][]int, nChains)
	for pos := 0; pos < nsv; pos++ {
		s.chains[pos%nChains] = append(s.chains[pos%nChains], pos)
	}
	return s
}

// Chains reports the number of scan chains.
func (s *Sim) Chains() int { return len(s.chains) }

// MaxChainLen reports the length of the longest chain.
func (s *Sim) MaxChainLen() int {
	m := 0
	for _, ch := range s.chains {
		if len(ch) > m {
			m = len(ch)
		}
	}
	return m
}

// Run applies random tests until the cycle budget is exhausted, marking
// newly detected faults in fs, and returns the campaign summary. With
// cfg.Sessions > 1 the budget is divided across independently seeded
// sessions (fault dropping carries across them).
func Run(c *circuit.Circuit, fs *fault.Set, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Sessions > 1 {
		per := cfg.Budget / int64(cfg.Sessions)
		var total Result
		for k := 0; k < cfg.Sessions; k++ {
			sub := cfg
			sub.Sessions = 1
			sub.Budget = per
			sub.Seed = lfsr.DeriveSeed(cfg.Seed, k)
			res, err := Run(c, fs, sub)
			if err != nil {
				return Result{}, err
			}
			total.Detected += res.Detected
			total.Tests += res.Tests
			total.Cycles += res.Cycles
			total.Chains = res.Chains
		}
		return total, nil
	}
	if cfg.LA < 1 || cfg.LB < 1 {
		return Result{}, fmt.Errorf("baseline: test lengths must be positive")
	}
	s := New(c, cfg.MaxChainLen)

	// Pregenerate the test list from the budget. Each test costs one
	// complete scan operation (overlapped scan-out/scan-in) plus its
	// vectors; one extra scan operation closes the session.
	scanCost := int64(s.MaxChainLen())
	src := lfsr.NewSplitMix(cfg.Seed)
	var tests []test
	cycles := scanCost // the final scan-out
	for i := 0; ; i++ {
		length := cfg.LA
		if i%2 == 1 {
			length = cfg.LB
		}
		cost := scanCost + int64(length)
		if cycles+cost > cfg.Budget {
			break
		}
		cycles += cost
		tt := test{si: logic.NewVec(c.NumSV())}
		for b := 0; b < c.NumSV(); b++ {
			tt.si.Set(b, src.Bit())
		}
		for u := 0; u < length; u++ {
			v := logic.NewVec(c.NumPI())
			for b := 0; b < c.NumPI(); b++ {
				v.Set(b, src.Bit())
			}
			tt.t = append(tt.t, v)
		}
		tests = append(tests, tt)
	}

	res := Result{Tests: len(tests), Cycles: cycles, Chains: s.Chains()}
	var t0 time.Time
	if cfg.Observer != nil {
		t0 = time.Now()
	}
	rem := fs.Remaining()
	nb := (len(rem) + 62) / 63
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nb {
		workers = nb
	}
	if o := cfg.Observer; o != nil {
		o.Gauge("baseline_workers").Set(float64(workers))
	}
	dets := make([]logic.Word, nb)
	if workers > 1 {
		// Shard the batches: they partition rem, so each fault is
		// simulated by exactly one worker against the full test list, and
		// the ordered merge below reproduces the serial result exactly.
		// A panicking worker is contained at its goroutine boundary: the
		// first panic is kept (with its stack), siblings stop at the next
		// batch claim, and the session fails with a typed error before
		// anything is merged into fs.
		var next atomic.Int64
		var wg sync.WaitGroup
		var panicErr atomic.Pointer[errs.PanicError]
		var stop atomic.Bool
		for w := 0; w < workers; w++ {
			ws := s
			if w > 0 {
				ws = New(c, cfg.MaxChainLen)
			}
			wg.Add(1)
			go func(ws *Sim) {
				defer wg.Done()
				if o := cfg.Observer; o != nil {
					w0 := time.Now()
					defer func() {
						o.Histogram("baseline_worker_busy_seconds").Observe(time.Since(w0).Seconds())
					}()
				}
				defer func() {
					if r := recover(); r != nil {
						panicErr.CompareAndSwap(nil, errs.NewPanic(r, debug.Stack()))
						stop.Store(true)
					}
				}()
				for !stop.Load() {
					bi := int(next.Add(1)) - 1
					if bi >= nb {
						return
					}
					lo, hi := bi*63, bi*63+63
					if hi > len(rem) {
						hi = len(rem)
					}
					if h := panicHook; h != nil {
						h(bi)
					}
					dets[bi] = ws.runBatch(tests, fs.Faults, rem[lo:hi])
				}
			}(ws)
		}
		wg.Wait()
		if pe := panicErr.Load(); pe != nil {
			return Result{}, fmt.Errorf("baseline: worker panic: %w", pe)
		}
	} else {
		for bi := 0; bi < nb; bi++ {
			lo, hi := bi*63, bi*63+63
			if hi > len(rem) {
				hi = len(rem)
			}
			dets[bi] = s.runBatch(tests, fs.Faults, rem[lo:hi])
		}
	}
	for bi := 0; bi < nb; bi++ {
		lo, hi := bi*63, bi*63+63
		if hi > len(rem) {
			hi = len(rem)
		}
		for j, fi := range rem[lo:hi] {
			if dets[bi]&logic.Lane(j+1) != 0 {
				fs.State[fi] = fault.Detected
				res.Detected++
			}
		}
	}
	if o := cfg.Observer; o != nil {
		o.Accumulate("baseline", time.Since(t0))
		o.Counter("baseline_sessions_total").Inc()
		o.Counter("baseline_tests_total").Add(int64(res.Tests))
		o.Counter("baseline_cycles_total").Add(res.Cycles)
		o.Counter("baseline_detected_total").Add(int64(res.Detected))
		o.Emit(obs.Event{
			Kind: obs.KindBaselineSession, N: res.Tests,
			Detected: res.Detected, Cycles: res.Cycles,
		})
	}
	return res, nil
}

func (s *Sim) runBatch(tests []test, faults []fault.Fault, batch []int) logic.Word {
	s.forces.Reset()
	s.stateStuck = s.stateStuck[:0]
	s.captureStuck = s.captureStuck[:0]

	scanPos := make(map[int]int, s.c.NumSV())
	for pos, id := range s.c.DFFs {
		scanPos[id] = pos
	}
	var batchMask logic.Word
	for j, fi := range batch {
		lane := j + 1
		batchMask |= logic.Lane(lane)
		f := faults[fi]
		g := &s.c.Gates[f.Gate]
		lf := laneForce{pos: scanPos[f.Gate], mask: logic.Lane(lane)}
		if f.Stuck != 0 {
			lf.val = lf.mask
		}
		switch {
		case g.Type == circuit.DFF && f.Pin == fault.Stem:
			s.stateStuck = append(s.stateStuck, lf)
		case g.Type == circuit.DFF:
			s.captureStuck = append(s.captureStuck, lf)
		case f.Pin == fault.Stem:
			s.forces.ForceOut(f.Gate, lane, f.Stuck)
		default:
			s.forces.ForcePin(f.Gate, f.Pin, lane, f.Stuck)
		}
	}

	for i := range s.state {
		s.state[i] = 0
	}
	s.applyStateStuck()

	var detected logic.Word
	observe := func(w logic.Word) {
		good := logic.Spread(logic.Bit(w, 0))
		detected |= (w ^ good) & batchMask
	}

	for ti := range tests {
		t := &tests[ti]
		// Complete scan: all chains shift in parallel; bits leaving each
		// chain's tail are observed (except before the first test, when
		// the outgoing state is the unknown power-up state).
		s.scanOp(t.si, ti > 0, observe)
		if detected&batchMask == batchMask {
			return detected
		}
		for u := 0; u < len(t.t); u++ {
			s.step(t.t[u])
			for i := 0; i < s.c.NumPO(); i++ {
				observe(s.ev.PO(i))
			}
			// [5]/[6]: the last flip-flop of every chain is observed at
			// every time unit.
			for _, ch := range s.chains {
				observe(s.state[ch[len(ch)-1]])
			}
			if detected&batchMask == batchMask {
				return detected
			}
		}
	}
	// Final scan-out.
	s.scanOp(logic.NewVec(s.c.NumSV()), true, observe)
	return detected
}

// scanOp shifts every chain maxLen times, filling with the corresponding
// bits of si (chains shorter than the longest pad with early fill cycles
// whose bits fall off their tail before the op ends).
func (s *Sim) scanOp(si logic.Vec, observeOut bool, observe func(logic.Word)) {
	maxLen := s.MaxChainLen()
	for k := 0; k < maxLen; k++ {
		for _, ch := range s.chains {
			if len(ch) < maxLen && k < maxLen-len(ch) {
				// Short chain idles until its bits align.
				continue
			}
			// Shift this chain one position: tail leaves, fill enters.
			tail := ch[len(ch)-1]
			if observeOut {
				observe(s.state[tail])
			}
			for i := len(ch) - 1; i > 0; i-- {
				s.state[ch[i]] = s.state[ch[i-1]]
			}
			// The bit entering now ends up k' positions into the chain;
			// feeding si back to front makes the final chain contents
			// equal si restricted to the chain.
			idx := maxLen - 1 - k
			fill := uint8(0)
			if idx < len(ch) {
				fill = si.Get(ch[idx])
			}
			s.state[ch[0]] = logic.Spread(fill)
			s.applyStateStuck()
		}
	}
}

func (s *Sim) applyStateStuck() {
	for _, f := range s.stateStuck {
		s.state[f.pos] = logic.Force(s.state[f.pos], f.mask, f.val)
	}
}

func (s *Sim) step(vec logic.Vec) {
	for i := 0; i < s.c.NumPI(); i++ {
		s.ev.SetPI(i, logic.Spread(vec.Get(i)))
	}
	for pos := range s.state {
		s.ev.SetState(pos, s.state[pos])
	}
	s.ev.Eval(s.forces)
	for pos := range s.state {
		s.state[pos] = s.ev.NextState(pos)
	}
	for _, f := range s.captureStuck {
		s.state[f.pos] = logic.Force(s.state[f.pos], f.mask, f.val)
	}
	s.applyStateStuck()
}
