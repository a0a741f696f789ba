package fsim

import (
	"fmt"
	"math/bits"
	"slices"

	"limscan/internal/circuit"
	"limscan/internal/fault"
	"limscan/internal/logic"
	"limscan/internal/scan"
)

// Pattern-parallel single-stuck-fault simulation (PPSFP).
//
// The fault-parallel kernel (runBatch) packs 63 faults and the good
// machine into one word and replays the whole session once per batch, so
// every batch pays for every test's scan shifts and full-circuit
// evaluations. The pattern-parallel kernel inverts the packing: up to
// 64 tests live one per lane of a machine word, the
// fault-free session is simulated once and its complete value trace
// recorded, and each fault is then propagated as a *difference* against
// that trace — an event-driven pass that touches only the gates whose
// values the fault actually changes. Detection is the fault-free-vs-
// faulty XOR mask at each observation site, so site attribution and the
// per-fault verdicts are bit-exact.
//
// Tests pack into groups of consecutive equal-length tests, capped at
// the lane width; each group gets one fault-free trace. A group's tests
// need not share a limited-scan schedule: lane l carries test lo+l with
// its own shift counts k_l and fill bits. At frame u every lane shifts
// by its own k_l — position p of lane l takes old[p-k_l], or its fill
// bit Fill_l[k_l-1-p] when p < k_l — so Procedure 1's sessions, which
// draw a fresh random schedule per test, pack as densely as TS0.
//
// Equivalence with the fault-parallel session (the argument DESIGN.md
// spells out, enforced by TestParallelPatternMatchesFaultParallel* and
// FuzzPPSFP):
//
//  1. Under a full scan plan the post-scan-in state is history-free:
//     scanning in SI leaves exactly SI, and a stuck flip-flop output at
//     chain position p leaves SI below p and the stuck value at and
//     above p (every bit at or above p passed through it). The scan-in
//     is therefore skipped analytically.
//  2. The bits observed during a complete scan operation are
//     fill-independent: the j-th observed bit is the pre-scan value of
//     chain position m-j (or the stuck value where a stuck flip-flop
//     intervenes), and incoming fill bits need more than m shifts to
//     reach the scan output. The fault-parallel session observes test
//     i's final state while scanning in test i+1; each pattern lane
//     instead observes its own final scan-out over fill 0 and sees the
//     identical stream.
//  3. Lanes are independent: every word operation is bitwise, so a
//     limited scan whose shift count differs per lane is, lane by lane,
//     the scan that lane's test performs alone. Step j of a frame's
//     limited scan is taken by the lanes with k_l >= j; the step mask
//     limits the observation at the scan output, the movement of the
//     difference words and the stuck flip-flop re-pin alike. When every
//     lane shifts the same amount — TS0's frames, shift-free frames and
//     every final scan-out — the step is a rotation of the ring head.
//  4. Fault-parallel observations are test-contiguous: all of test i's
//     observations (limited scans and POs in frame order, then its
//     scan-out) precede test i+1's. A fault's first divergence is hence
//     the lowest diverged lane of the first diverged pattern group, at
//     that lane's first in-session observation site — which is exactly
//     what runFault tracks (observe keeps each lane's first site, and
//     within a lane the steps arrive in the lane's own order).
//
// Batch geometry, merge order and early-exit verdicts are untouched, so
// stats, fault states, reports and checkpoints are byte-identical to
// the fault-parallel kernel at any worker count.

// ppLanes is the pattern-parallel lane width: one test per bit of a
// machine word.
const ppLanes = 64

// ppMinTestsPerGroup is the packing density at which Run picks PPSFP on
// its own: a session averaging fewer tests per group than this replays
// nearly every test once per fault, and the fault-parallel kernel wins
// (DESIGN.md §2a has the per-session measurements). Groups are cut by
// test length alone, so every TS0 and TS(I,D1) session clears it.
const ppMinTestsPerGroup = 2

// ppTraceBudget caps the bytes of fault-free trace prebuilt and shared
// across workers. Sessions whose traces would exceed it fall back to a
// per-worker single-group trace rebuilt on group switch — same results,
// bounded memory.
const ppTraceBudget = 256 << 20

// ppArenaRetain caps the trace storage a Simulator keeps between
// sessions: a session that needed more frees it at its end rather than
// pinning it for the rest of the campaign.
const ppArenaRetain = 16 << 20

// newPatternEngine validates the session for pattern-parallel simulation
// and builds the engine over its groups. rem indexes the faults that
// will actually be simulated.
func (s *Simulator) newPatternEngine(tests []scan.Test, groups []ppGroup, faults []fault.Fault, rem []int) (*ppEngine, error) {
	if !s.plan.IsFull() {
		return nil, fmt.Errorf("fsim: pattern-parallel mode requires a full scan plan (%d of %d flip-flops scanned); use fault-parallel mode for partial scan",
			s.plan.Len(), s.plan.Total)
	}
	for _, fi := range rem {
		if faults[fi].Model != fault.StuckAt {
			return nil, fmt.Errorf("fsim: pattern-parallel mode simulates stuck-at faults only (fault %v is %v); use fault-parallel mode for transition faults",
				faults[fi], faults[fi].Model)
		}
	}
	if len(rem) == 0 {
		return nil, nil // no batches: nothing to trace
	}
	if s.pp == nil {
		s.pp = newPPTables(s.c, s.plan)
	}
	return newPPEngine(s.pp, &s.ppArena, tests, groups), nil
}

// ppWorker returns the i-th pooled pattern-parallel worker bound to e,
// creating its scratch on first use — on the goroutine that will run it.
// A sharded run sizes the pool before its goroutines start
// (growPPPool), so concurrent calls touch distinct slots only.
func (s *Simulator) ppWorker(i int, e *ppEngine) *ppWorker {
	s.growPPPool(i + 1)
	w := s.ppPool[i]
	if w == nil {
		w = newPPWorker(s.pp)
		s.ppPool[i] = w
	}
	w.e = e
	w.ltGroup = -1
	return w
}

func (s *Simulator) growPPPool(n int) {
	for len(s.ppPool) < n {
		s.ppPool = append(s.ppPool, nil)
	}
}

// endPatternSession unbinds the pooled workers from the finished
// session's engine (so its tests and traces can be collected) and drops
// trace storage above ppArenaRetain.
func (s *Simulator) endPatternSession() {
	for _, w := range s.ppPool {
		if w != nil {
			w.e = nil
			w.ltArena.trim()
		}
	}
	s.ppArena.trim()
}

// ppTables are the circuit-invariant netlist tables of the
// pattern-parallel kernel, built once per Simulator.
type ppTables struct {
	c *circuit.Circuit
	m int // chain length (== N_SV under a full plan)
	// levelStart[l] is where level l's slots begin in a worker's bucket
	// array: a gate is queued at most once per frame, so level l never
	// needs more slots than it has gates.
	levelStart []int32

	dffNode []int32 // chain position -> flip-flop gate ID
	dsrc    []int32 // chain position -> gate ID captured at functional clocks
	posOf   []int32 // gate ID -> chain position (-1 for non-flip-flops)
	isPO    []bool  // gate ID -> is a primary output
	// sinkPos[sinkStart[id]:sinkStart[id+1]] are the chain positions
	// gate id feeds at a functional clock (capture fan-in).
	sinkStart []int32
	sinkPos   []int32
}

func newPPTables(c *circuit.Circuit, plan scan.Plan) *ppTables {
	m := plan.Len()
	t := &ppTables{
		c:         c,
		m:         m,
		dffNode:   make([]int32, m),
		dsrc:      make([]int32, m),
		posOf:     make([]int32, c.NumGates()),
		isPO:      make([]bool, c.NumGates()),
		sinkStart: make([]int32, c.NumGates()+1),
		sinkPos:   make([]int32, m),
	}
	for i := range t.posOf {
		t.posOf[i] = -1
	}
	for p, statePos := range plan.Chain {
		id := c.DFFs[statePos]
		src := c.Gates[id].Fanin[0]
		t.dffNode[p] = int32(id)
		t.dsrc[p] = int32(src)
		t.posOf[id] = int32(p)
		t.sinkStart[src+1]++
	}
	for id := 0; id < c.NumGates(); id++ {
		t.sinkStart[id+1] += t.sinkStart[id]
	}
	fill := append([]int32(nil), t.sinkStart[:c.NumGates()]...)
	for p, src := range t.dsrc {
		t.sinkPos[fill[src]] = int32(p)
		fill[src]++
	}
	for _, id := range c.Outputs {
		t.isPO[id] = true
	}
	t.levelStart = make([]int32, c.Depth()+2)
	for i := range c.Gates {
		t.levelStart[c.Gates[i].Level+1]++
	}
	for l := 1; l < len(t.levelStart); l++ {
		t.levelStart[l] += t.levelStart[l-1]
	}
	return t
}

// ppEngine is the shared read-only session state: the netlist tables,
// the pattern grouping and the prebuilt fault-free traces. Pooled
// ppWorkers bind to it for the session.
type ppEngine struct {
	*ppTables
	tests  []scan.Test
	groups []ppGroup
	traces []ppTrace // prebuilt per group; nil when over ppTraceBudget
}

// ppGroup is a maximal run of consecutive equal-length tests, capped at
// the lane width. Lane l carries test lo+l.
type ppGroup struct {
	lo, hi int
	frames int
}

// newPPEngine builds the session engine, prebuilding every group's
// trace in arena a unless the traces would exceed ppTraceBudget — then
// each worker rebuilds one group's trace at a time in its own arena.
func newPPEngine(t *ppTables, a *ppArena, tests []scan.Test, groups []ppGroup) *ppEngine {
	e := &ppEngine{ppTables: t, tests: tests, groups: groups}
	var words, rows int64
	for _, g := range groups {
		w, r := e.traceSize(g)
		words += int64(w)
		rows += int64(r)
	}
	if words*8 <= ppTraceBudget {
		a.reset(int(words), int(rows))
		e.traces = make([]ppTrace, len(groups))
		for i, g := range groups {
			e.traces[i] = e.buildTrace(g, a)
		}
	}
	return e
}

// shiftAt is a test's effective limited-scan schedule (nil Shift means no
// shifts anywhere — the same as an explicit all-zero schedule).
func shiftAt(t *scan.Test, u int) int {
	if t.Shift == nil {
		return 0
	}
	return t.Shift[u]
}

// ppGroups chunks consecutive equal-length tests into lane-width groups.
// Limited-scan schedules play no part: each lane keeps its own.
func ppGroups(tests []scan.Test) []ppGroup {
	var gs []ppGroup
	for i := 0; i < len(tests); {
		j := i + 1
		for j < len(tests) && j-i < ppLanes && tests[j].Len() == tests[i].Len() {
			j++
		}
		gs = append(gs, ppGroup{lo: i, hi: j, frames: tests[i].Len()})
		i = j
	}
	return gs
}

// ppTrace is one group's fault-free trace: everything the event-driven
// fault pass needs to read good values without re-simulating.
type ppTrace struct {
	// frameVals[u][id] is every signal's value during frame u (flip-flop
	// entries hold the post-shift state the frame evaluated from).
	frameVals [][]logic.Word
	// statePost[0] is the packed scan-in state; statePost[u+1] the state
	// after frame u's capture (so statePost[u] is the state entering
	// frame u's limited scan).
	statePost [][]logic.Word
	// fill[u][j] packs the lanes' (j+1)-th fill bits of frame u's limited
	// scan (zero in lanes shifting j times or fewer); len(fill[u]) is the
	// frame's deepest shift count, 0 without a limited scan.
	fill [][]logic.Word
	// mask[u][j] holds the lanes that take a (j+1)-th shift at frame u.
	// It is nil when every lane shifts len(fill[u]) times.
	mask [][]logic.Word
}

// frameShifts returns frame u's deepest shift count over the group's
// lanes and whether every lane shifts that much.
func (e *ppEngine) frameShifts(g ppGroup, u int) (deepest int, uniform bool) {
	deepest = shiftAt(&e.tests[g.lo], u)
	uniform = true
	for i := g.lo + 1; i < g.hi; i++ {
		if k := shiftAt(&e.tests[i], u); k != deepest {
			uniform = false
			deepest = max(deepest, k)
		}
	}
	return deepest, uniform
}

// traceSize returns the words and row headers buildTrace carves for g.
func (e *ppEngine) traceSize(g ppGroup) (words, rows int) {
	words = g.frames*e.c.NumGates() + (g.frames+1)*e.m + e.m + 1 + e.c.NumPI()
	for u := 0; u < g.frames; u++ {
		S, uniform := e.frameShifts(g, u)
		words += S
		if !uniform {
			words += S
		}
	}
	return words, 4*g.frames + 1
}

// buildTrace simulates one group's fault-free session in arena a,
// packing test lo+l into lane l.
func (e *ppEngine) buildTrace(g ppGroup, a *ppArena) ppTrace {
	c := e.c
	m := e.m
	ng := c.NumGates()
	nl := g.hi - g.lo
	tr := ppTrace{
		frameVals: a.rows(g.frames),
		statePost: a.rows(g.frames + 1),
		fill:      a.rows(g.frames),
		mask:      a.rows(g.frames),
	}
	for u := range tr.frameVals {
		tr.frameVals[u] = a.words(ng)
	}
	for u := range tr.statePost {
		tr.statePost[u] = a.words(m)
	}
	// byK[k] collects the lanes shifting k times at the current frame;
	// pi packs the frame's primary input vectors.
	byK := a.words(m + 1)
	pi := a.words(c.NumPI())
	// Complete scan-in, analytically: the state is exactly the packed SI.
	for l := 0; l < nl; l++ {
		e.tests[g.lo+l].SI.OrLane(tr.statePost[0], l)
	}
	var ks [ppLanes + 1]int // distinct shift counts of the frame
	for u := 0; u < g.frames; u++ {
		S, uniform := e.frameShifts(g, u)
		nk := 0
		if uniform {
			// Lanes past the group's tests shift along; nothing observes them.
			ks[0], byK[S], nk = S, logic.AllOnes, 1
		} else {
			for l := 0; l < nl; l++ {
				k := shiftAt(&e.tests[g.lo+l], u)
				if byK[k] == 0 {
					ks[nk] = k
					nk++
				}
				byK[k] |= logic.Lane(l)
			}
			if byK[0] == 0 {
				ks[nk] = 0
				nk++
			}
			byK[0] |= ^lanesBelow(nl) // spare lanes hold
		}
		if S > 0 {
			fw := a.words(S)
			for l := 0; l < nl; l++ {
				t := &e.tests[g.lo+l]
				for j := 0; j < shiftAt(t, u); j++ {
					if t.Fill[u][j] != 0 {
						fw[j] |= logic.Lane(l)
					}
				}
			}
			tr.fill[u] = fw
			if !uniform {
				// Step j+1 is taken by the lanes shifting more than j times.
				mk := a.words(S)
				var acc logic.Word
				for k := S; k >= 1; k-- {
					acc |= byK[k]
					mk[k-1] = acc
				}
				tr.mask[u] = mk
			}
		}
		// Each lane class shifts by its k: position p takes the value k
		// below it, the lowest k positions take the fill bits (last fed
		// lands at 0).
		pre := tr.statePost[u]
		val := tr.frameVals[u]
		for _, k := range ks[:nk] {
			M := byK[k]
			byK[k] = 0
			for p := 0; p < m; p++ {
				var v logic.Word
				if p >= k {
					v = pre[p-k]
				} else {
					v = tr.fill[u][k-1-p]
				}
				val[e.dffNode[p]] |= v & M
			}
		}
		clear(pi)
		for l := 0; l < nl; l++ {
			e.tests[g.lo+l].T[u].OrLane(pi, l)
		}
		for i, id := range c.Inputs {
			val[id] = pi[i]
		}
		e.evalGood(val)
		for p := 0; p < m; p++ {
			tr.statePost[u+1][p] = val[e.dsrc[p]]
		}
	}
	return tr
}

// ppArena is reusable trace storage: one word slab and one slab of row
// headers, both carved front to back and zeroed as they are handed out.
type ppArena struct {
	wordBuf []logic.Word
	rowBuf  [][]logic.Word
}

// reset readies the arena for nw words and nr row headers, reusing its
// slabs when they are large enough.
func (a *ppArena) reset(nw, nr int) {
	if cap(a.wordBuf) < nw {
		a.wordBuf = make([]logic.Word, 0, nw)
	}
	if cap(a.rowBuf) < nr {
		a.rowBuf = make([][]logic.Word, 0, nr)
	}
	a.wordBuf = a.wordBuf[:0]
	a.rowBuf = a.rowBuf[:0]
}

func (a *ppArena) words(n int) []logic.Word {
	lo := len(a.wordBuf)
	a.wordBuf = a.wordBuf[:lo+n]
	w := a.wordBuf[lo : lo+n : lo+n]
	clear(w)
	return w
}

func (a *ppArena) rows(n int) [][]logic.Word {
	lo := len(a.rowBuf)
	a.rowBuf = a.rowBuf[:lo+n]
	r := a.rowBuf[lo : lo+n : lo+n]
	clear(r)
	return r
}

// trim frees storage above ppArenaRetain and drops the row headers, so
// a retained arena pins no traces of the finished session but its own
// slab.
func (a *ppArena) trim() {
	if cap(a.wordBuf)*8 > ppArenaRetain {
		*a = ppArena{}
		return
	}
	clear(a.rowBuf[:cap(a.rowBuf)])
}

// evalGood evaluates the combinational core fault-free over the pattern
// lanes (sim.Evaluator's plain evaluation without fault forcing).
func (e *ppEngine) evalGood(val []logic.Word) {
	gs := e.c.Gates
	for _, id := range e.c.EvalOrder() {
		gate := &gs[id]
		var w logic.Word
		switch gate.Type {
		case circuit.And, circuit.Nand:
			w = logic.AllOnes
			for _, fi := range gate.Fanin {
				w &= val[fi]
			}
			if gate.Type == circuit.Nand {
				w = ^w
			}
		case circuit.Or, circuit.Nor:
			for _, fi := range gate.Fanin {
				w |= val[fi]
			}
			if gate.Type == circuit.Nor {
				w = ^w
			}
		case circuit.Xor, circuit.Xnor:
			for _, fi := range gate.Fanin {
				w ^= val[fi]
			}
			if gate.Type == circuit.Xnor {
				w = ^w
			}
		case circuit.Not:
			w = ^val[gate.Fanin[0]]
		case circuit.Buf:
			w = val[gate.Fanin[0]]
		case circuit.Const0:
			// zero
		case circuit.Const1:
			w = logic.AllOnes
		default:
			panic(fmt.Sprintf("fsim: gate %q of type %s in evaluation order", gate.Name, gate.Type))
		}
		val[id] = w
	}
}

// ppFaultKind classifies a stuck-at fault by how its difference enters
// the circuit (the pattern-parallel mirror of installFault).
type ppFaultKind uint8

const (
	ppSourceStem   ppFaultKind = iota // primary-input output stuck
	ppGateStem                        // combinational gate output stuck
	ppGatePin                         // gate input (branch) stuck
	ppStateStuck                      // flip-flop output stuck: lives in the ring diff
	ppCaptureStuck                    // flip-flop input stuck: forced at capture
)

type ppFault struct {
	kind ppFaultKind
	gate int
	pin  int
	pos  int        // chain position for the flip-flop kinds
	sv   logic.Word // stuck value spread across all lanes
}

// ppWorker is one goroutine's private kernel state. Its scratch is sized
// by the circuit alone, so a Simulator pools its workers across
// sessions; ppWorker binds one to each session's engine.
type ppWorker struct {
	t *ppTables // the hot paths' netlist tables, fixed for the worker's life
	e *ppEngine // the session it is bound to

	// Per-frame event state. diff is zero except on the nodes listed in
	// active, which the next frame clears; inBkt is set only while a
	// gate waits in its bucket.
	diff      []logic.Word // node -> faulty XOR fault-free
	inBkt     []bool       // gate -> queued this frame
	bucket    []int32      // queued gates; level l's start at levelStart[l]
	bucketLen []int32      // level -> gates queued at that level
	minLvl    int
	maxLvl    int
	active    []int32 // nodes with a nonzero diff this frame
	poHit     []int32 // subset of active that are primary outputs

	// Scan-chain state difference, as a rotating ring mirroring the
	// fault-parallel simulator's: chain position p lives in slot
	// (rhead+p) mod m, so a uniform scan shift is a head rotation. Only
	// dirty (nonzero) slots are ever touched.
	ring       []logic.Word
	rhead      int
	isDirty    []bool
	dirtySlots []int32 // may hold stale entries; isDirty is authoritative
	dirtyCount int
	// Per-group session accumulators.
	laneMask  logic.Word
	diverged  logic.Word
	siteFirst [numSites]logic.Word
	stopEarly bool

	// A mixed-shift scan operation splits the dirty slots in two. moving
	// lists, in descending chain-position order, the slots that may hold
	// bits of lanes still shifting (double-buffered with nextMoving
	// across steps); parked lists the slots holding bits of lanes done
	// shifting, which never move again in this operation (inParked
	// dedupes it).
	moving, nextMoving []int32
	parked             []int32
	inParked           []bool

	// Lazily rebuilt trace for sessions over ppTraceBudget.
	lt      ppTrace
	ltGroup int
	ltArena ppArena
}

func newPPWorker(t *ppTables) *ppWorker {
	ng := t.c.NumGates()
	return &ppWorker{
		t:         t,
		diff:      make([]logic.Word, ng),
		inBkt:     make([]bool, ng),
		bucket:    make([]int32, ng),
		bucketLen: make([]int32, len(t.levelStart)-1),
		active:    make([]int32, 0, ng),
		ring:      make([]logic.Word, t.m),
		isDirty:   make([]bool, t.m),
		inParked:  make([]bool, t.m),
		ltGroup:   -1,
	}
}

func (w *ppWorker) traceFor(gi int) *ppTrace {
	if w.e.traces != nil {
		return &w.e.traces[gi]
	}
	if w.ltGroup != gi {
		g := w.e.groups[gi]
		nw, nr := w.e.traceSize(g)
		w.ltArena.reset(nw, nr)
		w.lt = w.e.buildTrace(g, &w.ltArena)
		w.ltGroup = gi
	}
	return &w.lt
}

// runBatch simulates every fault of the batch, one at a time across all
// pattern lanes, and assembles the identical detection mask and per-site
// first-divergence masks the fault-parallel runBatch publishes — so the
// shared mergeBatch fold downstream cannot tell the modes apart.
func (w *ppWorker) runBatch(faults []fault.Fault, batch []int, opts Options, sites *[numSites]logic.Word) logic.Word {
	var det logic.Word
	w.stopEarly = sites == nil && !opts.NoEarlyExit
	for j, fi := range batch {
		f := w.classify(faults[fi])
		var firstDiv logic.Word
		var firstSite [numSites]logic.Word
		got := false
		if len(w.e.groups) == 0 {
			w.runEmptySession(f)
			got = w.diverged != 0
			firstDiv, firstSite = w.diverged, w.siteFirst
		}
		for gi := range w.e.groups {
			w.runFault(w.e.groups[gi], w.traceFor(gi), f)
			if !got && w.diverged != 0 {
				// The first diverged group decides the verdict: its lanes
				// are the earliest tests (observation order is
				// test-contiguous in the fault-parallel session).
				got = true
				firstDiv, firstSite = w.diverged, w.siteFirst
				if !opts.NoEarlyExit {
					break
				}
			}
		}
		if !got {
			continue
		}
		det |= logic.Lane(j + 1)
		if sites == nil {
			continue
		}
		lane := bits.TrailingZeros64(firstDiv)
		for site := 0; site < numSites; site++ {
			if logic.Bit(firstSite[site], lane) != 0 {
				sites[site] |= logic.Lane(j + 1)
				break
			}
		}
	}
	return det
}

func (w *ppWorker) classify(f fault.Fault) ppFault {
	pf := ppFault{gate: f.Gate, pin: f.Pin, sv: logic.Spread(f.Stuck)}
	g := &w.t.c.Gates[f.Gate]
	switch {
	case g.Type == circuit.DFF && f.Pin == fault.Stem:
		pf.kind = ppStateStuck
		pf.pos = int(w.t.posOf[f.Gate])
	case g.Type == circuit.DFF:
		pf.kind = ppCaptureStuck
		pf.pos = int(w.t.posOf[f.Gate])
	case g.Type == circuit.PI && f.Pin == fault.Stem:
		pf.kind = ppSourceStem
	case f.Pin == fault.Stem:
		pf.kind = ppGateStem
	default:
		pf.kind = ppGatePin
	}
	return pf
}

// runFault replays one group's session for one fault as a difference
// against the fault-free trace, leaving the lanes that diverged and their

// runFault replays one group's session for one fault as a difference
// against the fault-free trace, leaving the lanes that diverged and their
// first sites in w.diverged / w.siteFirst.
func (w *ppWorker) runFault(g ppGroup, tr *ppTrace, f ppFault) {
	w.laneMask = lanesBelow(g.hi - g.lo)
	w.diverged = 0
	w.siteFirst = [numSites]logic.Word{}
	w.clearRing()

	m := w.t.m
	// Analytic scan-in (equivalence point 1): no difference survives a
	// complete scan except a stuck flip-flop output, which corrupts its
	// own position and everything that shifted past it.
	if f.kind == ppStateStuck {
		for p := f.pos; p < m; p++ {
			w.setRingPos(p, tr.statePost[0][p]^f.sv)
		}
	}
	for u := 0; u < g.frames; u++ {
		if S := len(tr.fill[u]); S > 0 && w.scanOp(tr.mask[u], tr.statePost[u], tr.fill[u], S, siteLimitedScan, f) {
			return
		}
		w.frame(u, tr, f)
		if w.stopEarly && w.diverged != 0 {
			return
		}
		w.capture(u, tr, f)
	}
	// Final complete scan-out over fill 0 (equivalence point 2: the
	// fault-parallel session observes the same stream while scanning in
	// the next test, or at the session end).
	w.scanOp(nil, tr.statePost[g.frames], nil, m, siteScanOut, f)
}

// runEmptySession mirrors a session with no tests: the fault-parallel
// runBatch still scans out the reset (all-zero) state, so a stuck-at-1
// flip-flop output is observable even then. Single machine, lane 0.
func (w *ppWorker) runEmptySession(f ppFault) {
	w.laneMask = 1
	w.diverged = 0
	w.siteFirst = [numSites]logic.Word{}
	w.clearRing()
	if f.kind != ppStateStuck || w.t.m == 0 {
		return
	}
	// reset zeroes every lane, then pins the stuck position.
	w.setRingPos(f.pos, f.sv)
	w.scanOp(nil, nil, nil, w.t.m, siteScanOut, f)
}

// scanOp performs one scan operation of up to S shifts on the difference
// ring. masks[j-1] holds the lanes that take a j-th shift (equivalence
// point 3); nil masks means every lane shifts S times, and a step is a
// head rotation. Otherwise each step moves the dirty words one position
// up under its mask. Either way step j observes the masked bits leaving
// the chain and re-pins a stuck flip-flop output in the masked lanes
// against the fault-free trajectory: pre is the state entering the
// operation, fill the packed incoming bits (both may be nil, meaning
// all-zero — the final scan-out). Returns true when the early exit
// fired.
func (w *ppWorker) scanOp(masks, pre, fill []logic.Word, S, site int, f ppFault) bool {
	m := w.t.m
	hasStuck := f.kind == ppStateStuck
	if m == 0 || S == 0 || (w.dirtyCount == 0 && !hasStuck) {
		// Nothing dirty and nothing re-pinning: the operation only moves
		// agreeing values past the scan output.
		return false
	}
	if masks != nil {
		w.startMixed()
	}
	mask := logic.AllOnes
	fired := false
	for j := 1; j <= S; j++ {
		if masks == nil {
			out := w.rhead - 1
			if out < 0 {
				out += m
			}
			if w.isDirty[out] {
				w.observe(site, w.ring[out])
				w.ring[out] = 0
				w.isDirty[out] = false
				w.dirtyCount--
			}
			// The vacated slot becomes position 0; its fill difference is
			// 0 (fill bits agree across the good and faulty machines).
			w.rhead = out
		} else {
			mask = masks[j-1]
			w.maskedStep(mask, site)
		}
		if hasStuck {
			// Fault-free value at the stuck position after j shifts: the
			// bit j below it before the operation, or an incoming fill bit.
			var good logic.Word
			if f.pos >= j {
				if pre != nil {
					good = pre[f.pos-j]
				}
			} else if fill != nil {
				good = fill[j-1-f.pos]
			}
			if masks == nil {
				w.setRingPos(f.pos, good^f.sv)
			} else {
				w.pinMasked(f.pos, good^f.sv, mask)
			}
		} else if w.dirtyCount == 0 || (masks != nil && len(w.moving) == 0) {
			break // nothing left to move
		}
		if w.stopEarly && w.diverged != 0 {
			fired = true
			break
		}
	}
	if masks != nil {
		w.endMixed()
	}
	return fired
}

// startMixed lists every dirty slot as moving, in descending chain
// position order.
func (w *ppWorker) startMixed() {
	w.moving = w.moving[:0]
	for _, slot := range w.dirtySlots {
		if w.isDirty[slot] {
			w.moving = append(w.moving, slot)
		}
	}
	slices.SortFunc(w.moving, w.byPosDesc)
	w.moving = slices.Compact(w.moving)
}

// endMixed hands the dirty set back to the slot list the frame pass
// reads.
func (w *ppWorker) endMixed() {
	w.dirtySlots = append(w.dirtySlots[:0], w.parked...)
	for _, slot := range w.moving {
		if !w.inParked[slot] {
			w.dirtySlots = append(w.dirtySlots, slot)
		}
	}
	for _, slot := range w.parked {
		w.inParked[slot] = false
	}
	w.parked = w.parked[:0]
}

// byPosDesc orders ring slots by descending chain position.
func (w *ppWorker) byPosDesc(a, b int32) int {
	return w.posOf(b) - w.posOf(a)
}

func (w *ppWorker) posOf(slot int32) int {
	p := int(slot) - w.rhead
	if p < 0 {
		p += w.t.m
	}
	return p
}

// maskedStep is one scan shift taken by the lanes of mask: their part
// of every moving word moves one position up (walking down from the
// scan output, so a position's own masked lanes have left before the
// ones below arrive), and their part of the last position is observed.
// The other lanes have finished shifting; their bits park where they
// are.
func (w *ppWorker) maskedStep(mask logic.Word, site int) {
	m := w.t.m
	out := int32(w.rhead - 1) // chain position m-1
	if out < 0 {
		out += int32(m)
	}
	next := w.nextMoving[:0]
	for _, slot := range w.moving {
		d := w.ring[slot]
		if d&^mask != 0 && !w.inParked[slot] {
			w.inParked[slot] = true
			w.parked = append(w.parked, slot)
		}
		mv := d & mask
		if mv == 0 {
			continue
		}
		if slot == out {
			w.observe(site, mv)
		} else {
			up := slot + 1
			if int(up) == m {
				up = 0
			}
			w.putSlot(int(up), w.ring[up]|mv)
			if len(next) == 0 || next[len(next)-1] != up {
				next = append(next, up)
			}
		}
		w.putSlot(int(slot), d&^mask)
	}
	w.nextMoving, w.moving = w.moving, next
}

// pinMasked sets the lanes of mask at chain position p to d; they take
// the next step, so the slot joins the moving list.
func (w *ppWorker) pinMasked(p int, d, mask logic.Word) {
	slot := w.slotOf(p)
	w.putSlot(slot, w.ring[slot]&^mask|d&mask)
	if d&mask == 0 {
		return
	}
	i, found := slices.BinarySearchFunc(w.moving, int32(slot), w.byPosDesc)
	if !found {
		w.moving = slices.Insert(w.moving, i, int32(slot))
	}
}

// frame runs one event-driven difference pass: seed the state and fault
// differences, propagate through the levelized buckets (each gate
// evaluated at most once, after all its fan-ins settled), then observe
// the primary outputs that changed.
func (w *ppWorker) frame(u int, tr *ppTrace, f ppFault) {
	for _, id := range w.active {
		w.diff[id] = 0
	}
	w.active = w.active[:0]
	w.poHit = w.poHit[:0]
	w.minLvl, w.maxLvl = len(w.bucketLen), -1

	if w.dirtyCount > 0 {
		for _, slot := range w.dirtySlots {
			if !w.isDirty[slot] {
				continue
			}
			p := int(slot) - w.rhead
			if p < 0 {
				p += w.t.m
			}
			w.stampNode(w.t.dffNode[p], w.ring[slot])
		}
	}
	switch f.kind {
	case ppSourceStem:
		if d := tr.frameVals[u][f.gate] ^ f.sv; d != 0 {
			w.stampNode(int32(f.gate), d)
		}
	case ppGateStem, ppGatePin:
		w.push(int32(f.gate))
	}
	for lvl := w.minLvl; lvl <= w.maxLvl; lvl++ {
		// Gates queue only at levels above the one being evaluated, so
		// this level's slots are final.
		b := w.bucket[w.t.levelStart[lvl]:][:w.bucketLen[lvl]]
		for _, id := range b {
			w.inBkt[id] = false
			w.evalDiff(int(id), u, tr, f)
		}
		w.bucketLen[lvl] = 0
	}
	for _, id := range w.poHit {
		w.observe(sitePO, w.diff[id])
	}
}

// stampNode records a nonzero difference on a node and schedules its
// combinational fanout (flip-flop fanouts are handled at capture).
func (w *ppWorker) stampNode(id int32, d logic.Word) {
	w.diff[id] = d
	w.active = append(w.active, id)
	if w.t.isPO[id] {
		w.poHit = append(w.poHit, id)
	}
	gs := w.t.c.Gates
	for _, fo := range gs[id].Fanout {
		if gs[fo].Type != circuit.DFF {
			w.push(int32(fo))
		}
	}
}

func (w *ppWorker) push(id int32) {
	if w.inBkt[id] {
		return
	}
	w.inBkt[id] = true
	lvl := w.t.c.Gates[id].Level
	w.bucket[int(w.t.levelStart[lvl])+int(w.bucketLen[lvl])] = id
	w.bucketLen[lvl]++
	if lvl < w.minLvl {
		w.minLvl = lvl
	}
	if lvl > w.maxLvl {
		w.maxLvl = lvl
	}
}

// in reads a fan-in's faulty value: the trace value XOR its difference
// (zero unless the fan-in diverged this frame).
func (w *ppWorker) in(fi int, fv []logic.Word) logic.Word {
	return fv[fi] ^ w.diff[fi]
}

// evalDiff re-evaluates one scheduled gate against the faulty fan-in
// values and stamps it if its output actually changed.
func (w *ppWorker) evalDiff(id int, u int, tr *ppTrace, f ppFault) {
	fv := tr.frameVals[u]
	gate := &w.t.c.Gates[id]
	var out logic.Word
	switch {
	case f.kind == ppGateStem && f.gate == id:
		out = f.sv
	case f.kind == ppGatePin && f.gate == id:
		out = w.evalGatePin(gate, fv, f)
	default:
		out = w.evalGateDiff(gate, fv)
	}
	if d := out ^ fv[id]; d != 0 {
		w.stampNode(int32(id), d)
	}
}

func (w *ppWorker) evalGateDiff(gate *circuit.Gate, fv []logic.Word) logic.Word {
	var out logic.Word
	switch gate.Type {
	case circuit.And, circuit.Nand:
		out = logic.AllOnes
		for _, fi := range gate.Fanin {
			out &= w.in(fi, fv)
		}
		if gate.Type == circuit.Nand {
			out = ^out
		}
	case circuit.Or, circuit.Nor:
		for _, fi := range gate.Fanin {
			out |= w.in(fi, fv)
		}
		if gate.Type == circuit.Nor {
			out = ^out
		}
	case circuit.Xor, circuit.Xnor:
		for _, fi := range gate.Fanin {
			out ^= w.in(fi, fv)
		}
		if gate.Type == circuit.Xnor {
			out = ^out
		}
	case circuit.Not:
		out = ^w.in(gate.Fanin[0], fv)
	case circuit.Buf:
		out = w.in(gate.Fanin[0], fv)
	case circuit.Const0:
		// zero
	case circuit.Const1:
		out = logic.AllOnes
	default:
		panic(fmt.Sprintf("fsim: gate %q of type %s scheduled in difference pass", gate.Name, gate.Type))
	}
	return out
}

// evalGatePin evaluates the faulty gate of a branch fault: the stuck pin
// reads the stuck value, every other pin its faulty fan-in.
func (w *ppWorker) evalGatePin(gate *circuit.Gate, fv []logic.Word, f ppFault) logic.Word {
	pin := func(i int) logic.Word {
		if i == f.pin {
			return f.sv
		}
		return w.in(gate.Fanin[i], fv)
	}
	var out logic.Word
	switch gate.Type {
	case circuit.And, circuit.Nand:
		out = logic.AllOnes
		for i := range gate.Fanin {
			out &= pin(i)
		}
		if gate.Type == circuit.Nand {
			out = ^out
		}
	case circuit.Or, circuit.Nor:
		for i := range gate.Fanin {
			out |= pin(i)
		}
		if gate.Type == circuit.Nor {
			out = ^out
		}
	case circuit.Xor, circuit.Xnor:
		for i := range gate.Fanin {
			out ^= pin(i)
		}
		if gate.Type == circuit.Xnor {
			out = ^out
		}
	case circuit.Not:
		out = ^pin(0)
	case circuit.Buf:
		out = pin(0)
	default:
		panic(fmt.Sprintf("fsim: branch fault on gate %q of type %s", gate.Name, gate.Type))
	}
	return out
}

// capture advances the difference ring across a functional clock: every
// flip-flop takes its capture source's difference (usually zero — old
// ring differences die unless re-fed), then the flip-flop fault, if any,
// re-pins its position against the fault-free next state.
func (w *ppWorker) capture(u int, tr *ppTrace, f ppFault) {
	if w.dirtyCount > 0 {
		for _, slot := range w.dirtySlots {
			if w.isDirty[slot] {
				w.ring[slot] = 0
				w.isDirty[slot] = false
			}
		}
		w.dirtyCount = 0
	}
	w.dirtySlots = w.dirtySlots[:0]
	for _, id := range w.active {
		for _, p := range w.t.sinkPos[w.t.sinkStart[id]:w.t.sinkStart[id+1]] {
			w.setRingPos(int(p), w.diff[id])
		}
	}
	if f.kind == ppCaptureStuck || f.kind == ppStateStuck {
		w.setRingPos(f.pos, tr.statePost[u+1][f.pos]^f.sv)
	}
}

// setRingPos sets chain position p's difference word, listing the slot
// when it turns dirty.
func (w *ppWorker) setRingPos(p int, d logic.Word) {
	slot := w.slotOf(p)
	if d != 0 && !w.isDirty[slot] {
		w.dirtySlots = append(w.dirtySlots, int32(slot))
	}
	w.putSlot(slot, d)
}

// putSlot sets a ring slot's difference word and its dirty bookkeeping;
// the caller keeps whichever dirty list it iterates.
func (w *ppWorker) putSlot(slot int, d logic.Word) {
	if d == 0 {
		if w.isDirty[slot] {
			w.ring[slot] = 0
			w.isDirty[slot] = false
			w.dirtyCount--
		}
		return
	}
	w.ring[slot] = d
	if !w.isDirty[slot] {
		w.isDirty[slot] = true
		w.dirtyCount++
	}
}

// slotOf maps chain position p to its ring slot.
func (w *ppWorker) slotOf(p int) int {
	slot := w.rhead + p
	if slot >= w.t.m {
		slot -= w.t.m
	}
	return slot
}

func (w *ppWorker) clearRing() {
	for _, slot := range w.dirtySlots {
		if w.isDirty[slot] {
			w.ring[slot] = 0
			w.isDirty[slot] = false
		}
	}
	w.dirtySlots = w.dirtySlots[:0]
	w.dirtyCount = 0
	w.rhead = 0
}

// observe folds one observed difference word into the session verdict:
// lanes diverging for the first time credit this site (within a lane,
// observations arrive in the fault-parallel session's order).
func (w *ppWorker) observe(site int, d logic.Word) {
	newly := d & w.laneMask &^ w.diverged
	if newly == 0 {
		return
	}
	w.siteFirst[site] |= newly
	w.diverged |= newly
}

// lanesBelow returns a word with lanes 0..n-1 set (0 <= n <= ppLanes).
func lanesBelow(n int) logic.Word {
	if n >= ppLanes {
		return logic.AllOnes
	}
	return logic.Lane(n) - 1
}
