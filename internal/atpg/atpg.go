// Package atpg implements a PODEM test generator over the scan view of a
// full-scan circuit (primary inputs plus flip-flop outputs controllable,
// primary outputs plus flip-flop inputs observable).
//
// Its role in the reproduction is to define "complete fault coverage"
// rigorously: Procedure 2 of the paper stops at 100% coverage of the
// detectable faults, and PODEM classifies every collapsed fault as
// testable, untestable (proven redundant by exhausting the search space),
// or aborted (backtrack limit hit; treated as possibly testable).
// Generated tests are also reusable as a deterministic top-off vector set.
package atpg

import (
	"limscan/internal/circuit"
	"limscan/internal/fault"
	"limscan/internal/logic"
)

// Verdict classifies a fault after test generation.
type Verdict int

// The possible outcomes of Generate.
const (
	Testable Verdict = iota
	Untestable
	Aborted
)

func (v Verdict) String() string {
	switch v {
	case Testable:
		return "testable"
	case Untestable:
		return "untestable"
	case Aborted:
		return "aborted"
	}
	return "?"
}

// TestCube is a generated test in the scan view: a state to scan in and a
// single primary input vector to apply. Unassigned positions are don't-
// cares; Concretize fills them.
type TestCube struct {
	PI    []logic.V5 // per primary input: Zero, One or X
	State []logic.V5 // per scan position: Zero, One or X
}

// Concretize returns the cube with don't-cares filled with the given bit.
func (tc TestCube) Concretize(fill uint8) (pi, state logic.Vec) {
	pi = logic.NewVec(len(tc.PI))
	for i, v := range tc.PI {
		pi.Set(i, v5bit(v, fill))
	}
	state = logic.NewVec(len(tc.State))
	for i, v := range tc.State {
		state.Set(i, v5bit(v, fill))
	}
	return pi, state
}

func v5bit(v logic.V5, fill uint8) uint8 {
	switch v {
	case logic.One:
		return 1
	case logic.Zero:
		return 0
	}
	return fill
}

// Engine runs PODEM for one circuit. Not safe for concurrent use.
//
// Implication is event-driven. Gate values persist across the steps of
// one search; a decision, flip or pop records the source it changed, and
// imply re-evaluates only the fanout of values that actually changed,
// level by level, stopping wherever a gate's value holds. A full
// evaluation runs only when a search starts (new fault, constraint and
// an empty assignment set). DESIGN.md §2d argues that this reproduces
// the full evaluation exactly, so verdicts, cubes and backtrack counts
// do not depend on it.
type Engine struct {
	c *circuit.Circuit
	// BacktrackLimit bounds the search; when exhausted the verdict is
	// Aborted. The default (0) means 10000 backtracks.
	BacktrackLimit int

	val []logic.V5
	// assigned holds each source's decision value; X means unassigned.
	assigned []logic.V5
	sources  []int  // controllable sources: PIs then DFFs
	isPO     []bool // gates observed as POs
	ppoOf    []int  // driver gate -> DFF gate (PPO), for pin faults; -1 if none
	cc0, cc1 []int  // SCOAP-like controllability costs

	// level is each gate's combinational level; exactly the sources are
	// at level 0. buckets[l] queues the level-l gates scheduled for
	// re-evaluation, and queued marks them so a gate is queued at most
	// once per imply.
	level   []int
	buckets [][]int
	queued  []bool
	// changed lists the sources whose assignment changed since the last
	// imply.
	changed []int

	// cone is the fault site's combinational output cone in evaluation
	// order: the only gates that can carry an error, so the only
	// D-frontier candidates.
	cone     []int
	inCone   []bool
	frontier []int // dFrontier's result, reused

	// xPathExists memo: an entry is valid when its stamp equals epoch.
	memoVal   []bool
	memoStamp []uint32
	epoch     uint32

	stack      []decision
	backtracks int

	f fault.Fault
	// constraint, when set, requires an additional line justification
	// alongside detection (used by the two-frame transition search: the
	// launch value in the first frame).
	constraint *lineConstraint

	// checkImply, when set (by tests only), runs after every incremental
	// imply.
	checkImply func(*Engine)
}

type lineConstraint struct {
	line int
	want logic.V5
}

// decision is one entry of the PODEM decision stack.
type decision struct {
	src     int
	flipped bool
}

// New returns an Engine for c. The per-gate tables are built here, once
// per circuit; the work lists (decision stack, changed sources, cone)
// grow to their working size in the first searches and are then reused.
func New(c *circuit.Circuit) *Engine {
	n := c.NumGates()
	e := &Engine{
		c:         c,
		val:       make([]logic.V5, n),
		assigned:  make([]logic.V5, n),
		sources:   c.ScanSources(),
		isPO:      make([]bool, n),
		ppoOf:     make([]int, n),
		level:     make([]int, n),
		queued:    make([]bool, n),
		inCone:    make([]bool, n),
		memoVal:   make([]bool, n),
		memoStamp: make([]uint32, n),
	}
	for id := range e.assigned {
		e.assigned[id] = logic.X
		e.ppoOf[id] = -1
	}
	for _, id := range c.Outputs {
		e.isPO[id] = true
	}
	for _, id := range c.DFFs {
		e.ppoOf[c.Gates[id].Fanin[0]] = id
	}
	// Levels from the eval order: a gate sits one above its deepest
	// fanin, so every fanout of a gate is at a strictly higher level.
	maxLevel := 0
	for _, id := range c.EvalOrder() {
		l := 0
		for _, f := range c.Gates[id].Fanin {
			l = max(l, e.level[f])
		}
		e.level[id] = l + 1
		maxLevel = max(maxLevel, l+1)
	}
	width := make([]int, maxLevel+1)
	for _, id := range c.EvalOrder() {
		width[e.level[id]]++
	}
	e.buckets = make([][]int, maxLevel+1)
	for l := range e.buckets {
		e.buckets[l] = make([]int, 0, width[l])
	}
	e.computeControllability()
	return e
}

// Backtracks reports how many backtracks the last Generate made, summed
// over its justification queries and its search.
func (e *Engine) Backtracks() int { return e.backtracks }

// computeControllability assigns SCOAP-style CC0/CC1 costs used to guide
// backtrace towards the cheapest source assignments.
func (e *Engine) computeControllability() {
	n := e.c.NumGates()
	e.cc0 = make([]int, n)
	e.cc1 = make([]int, n)
	for id := range e.c.Gates {
		g := &e.c.Gates[id]
		if g.Type == circuit.PI || g.Type == circuit.DFF {
			e.cc0[id], e.cc1[id] = 1, 1
		}
	}
	for _, id := range e.c.EvalOrder() {
		g := &e.c.Gates[id]
		sum0, sum1 := 0, 0
		min0, min1 := 1<<30, 1<<30
		for _, f := range g.Fanin {
			sum0 += e.cc0[f]
			sum1 += e.cc1[f]
			if e.cc0[f] < min0 {
				min0 = e.cc0[f]
			}
			if e.cc1[f] < min1 {
				min1 = e.cc1[f]
			}
		}
		switch g.Type {
		case circuit.And:
			e.cc1[id], e.cc0[id] = sum1+1, min0+1
		case circuit.Nand:
			e.cc0[id], e.cc1[id] = sum1+1, min0+1
		case circuit.Or:
			e.cc1[id], e.cc0[id] = min1+1, sum0+1
		case circuit.Nor:
			e.cc0[id], e.cc1[id] = min1+1, sum0+1
		case circuit.Not:
			e.cc0[id], e.cc1[id] = e.cc1[g.Fanin[0]]+1, e.cc0[g.Fanin[0]]+1
		case circuit.Buf:
			e.cc0[id], e.cc1[id] = e.cc0[g.Fanin[0]]+1, e.cc1[g.Fanin[0]]+1
		case circuit.Xor, circuit.Xnor:
			// Coarse: either polarity costs about the cheaper input pair.
			e.cc0[id], e.cc1[id] = min0+min1+1, min0+min1+1
		case circuit.Const0:
			e.cc0[id], e.cc1[id] = 1, 1<<29
		case circuit.Const1:
			e.cc0[id], e.cc1[id] = 1<<29, 1
		}
	}
}

// Generate runs PODEM for fault f and returns the verdict and, when
// testable, the generated cube. Only stuck-at faults are classifiable;
// transition faults (which need two-pattern reasoning) return Aborted.
func (e *Engine) Generate(f fault.Fault) (Verdict, TestCube) {
	e.backtracks = 0
	if f.Model != fault.StuckAt {
		return Aborted, TestCube{}
	}
	limit := e.BacktrackLimit
	if limit <= 0 {
		limit = 10000
	}

	g := &e.c.Gates[f.Gate]
	// A flip-flop output stem fault (position p, stuck at v) has a
	// dedicated scan-out detection path: every observed bit that leaves
	// from a position q <= p carries the stuck value in the faulty
	// machine (it is either the stuck bit itself or passed through it),
	// so the fault is detected whenever the good machine can capture the
	// opposite value at any position q <= p. That is a pure line
	// justification query; when it succeeds the returned cube is a
	// guaranteed test. When it fails everywhere we fall through to the
	// ordinary search, which covers propagation through the functional
	// logic from the scanned-in state.
	justAborted := false
	if g.Type == circuit.DFF && f.Pin == fault.Stem {
		want := logic.One
		if f.Stuck == 1 {
			want = logic.Zero
		}
		for _, d := range e.c.DFFs { // positions q <= p, in order
			switch ok, cube := e.justify(e.c.Gates[d].Fanin[0], want, limit); ok {
			case justifyYes:
				return Testable, cube
			case justifyAborted:
				justAborted = true
			}
			if d == f.Gate {
				break
			}
		}
	}

	e.start(f, nil)
	return e.search(limit, justAborted)
}

// start resets the engine for a new search: the fault and constraint are
// installed, every assignment is cleared, and the whole scan view is
// evaluated once. Steps of the search then imply incrementally.
func (e *Engine) start(f fault.Fault, con *lineConstraint) {
	e.f = f
	e.constraint = con
	for _, id := range e.sources {
		e.assigned[id] = logic.X
	}
	e.changed = e.changed[:0]
	e.stack = e.stack[:0]
	e.buildCone()
	for _, id := range e.sources {
		e.val[id] = e.sourceValue(id)
	}
	for _, id := range e.c.EvalOrder() {
		e.val[id] = e.eval(id)
	}
}

// assign sets (or, with X, clears) a source's decision value and records
// the change for the next imply.
func (e *Engine) assign(src int, v logic.V5) {
	e.assigned[src] = v
	e.changed = append(e.changed, src)
}

// search runs the PODEM decision loop for the engine's current fault
// (and constraint, if any), as installed by start.
func (e *Engine) search(limit int, inconclusive bool) (Verdict, TestCube) {
	base := e.backtracks
	for {
		e.imply()
		if e.success() {
			return Testable, e.cube()
		}
		obj, objVal, ok := e.objective()
		if ok {
			src, srcVal, found := e.backtrace(obj, objVal)
			if found {
				e.assign(src, srcVal)
				e.stack = append(e.stack, decision{src: src})
				continue
			}
		}
		// Dead end: flip or pop.
		if !e.backtrack() {
			if inconclusive {
				// Part of the search was inconclusive, so an
				// untestability proof is not available.
				return Aborted, TestCube{}
			}
			return Untestable, TestCube{}
		}
		if e.backtracks-base > limit {
			return Aborted, TestCube{}
		}
	}
}

// backtrack pops decisions that were already flipped and flips the
// newest one that was not, counting one backtrack. It reports false when
// the stack empties: the search space is exhausted.
func (e *Engine) backtrack() bool {
	for len(e.stack) > 0 {
		top := &e.stack[len(e.stack)-1]
		if !top.flipped {
			top.flipped = true
			e.assign(top.src, logic.Not5(e.assigned[top.src]))
			e.backtracks++
			return true
		}
		e.assign(top.src, logic.X)
		e.stack = e.stack[:len(e.stack)-1]
	}
	return false
}

type justifyResult int

const (
	justifyNo justifyResult = iota
	justifyYes
	justifyAborted
)

// justify searches for source assignments that set the given line to the
// given value in the fault-free circuit, using the same decision search
// as Generate. It clobbers the engine's fault and assignments.
func (e *Engine) justify(line int, want logic.V5, limit int) (justifyResult, TestCube) {
	e.start(fault.Fault{Gate: -1, Pin: fault.Stem}, nil) // no injection
	base := e.backtracks
	for {
		e.imply()
		v := e.val[line]
		if v == want {
			return justifyYes, e.cube()
		}
		if v == logic.X {
			if src, srcVal, found := e.backtrace(line, want); found {
				e.assign(src, srcVal)
				e.stack = append(e.stack, decision{src: src})
				continue
			}
		}
		if !e.backtrack() {
			return justifyNo, TestCube{}
		}
		if e.backtracks-base > limit {
			return justifyAborted, TestCube{}
		}
	}
}

// imply brings every gate value up to date with the source assignments
// changed since the last call. A changed source value schedules its
// fanout; levels are then swept in increasing order, and a re-evaluated
// gate schedules its own fanout only when its value changed. Fanout
// always sits at a higher level, so each gate is evaluated at most once,
// after all its fanins are final.
func (e *Engine) imply() {
	top := 0 // highest level scheduled so far
	for _, src := range e.changed {
		if v := e.sourceValue(src); v != e.val[src] {
			e.val[src] = v
			top = max(top, e.schedule(src))
		}
	}
	e.changed = e.changed[:0]
	for l := 1; l <= top; l++ {
		b := e.buckets[l]
		for _, id := range b {
			e.queued[id] = false
			if v := e.eval(id); v != e.val[id] {
				e.val[id] = v
				top = max(top, e.schedule(id))
			}
		}
		e.buckets[l] = b[:0]
	}
	if e.checkImply != nil {
		e.checkImply(e)
	}
}

// schedule queues the combinational fanout of gate id for
// re-evaluation and returns the highest level it queued (0 if none).
// Flip-flops are sources, not consumers, so they are never queued.
func (e *Engine) schedule(id int) int {
	top := 0
	for _, fo := range e.c.Gates[id].Fanout {
		l := e.level[fo]
		if l == 0 || e.queued[fo] {
			continue
		}
		e.queued[fo] = true
		e.buckets[l] = append(e.buckets[l], fo)
		top = max(top, l)
	}
	return top
}

// sourceValue is a source's value: its assignment, with a source stem
// fault injected (PI stuck, or a DFF output stem fault that reached the
// ordinary search).
func (e *Engine) sourceValue(id int) logic.V5 {
	v := e.assigned[id]
	if e.f.Gate == id && e.f.Pin == fault.Stem {
		v = pinTransform(v, e.f.Stuck)
	}
	return v
}

// eval computes combinational gate id's value from its fanins' current
// values. Every gate but the fault gate takes the injection-free path.
func (e *Engine) eval(id int) logic.V5 {
	g := &e.c.Gates[id]
	if id == e.f.Gate {
		v := e.evalGate(id, g)
		if e.f.Pin == fault.Stem {
			v = pinTransform(v, e.f.Stuck)
		}
		return v
	}
	val := e.val
	switch g.Type {
	case circuit.And, circuit.Nand:
		v := logic.One
		for _, f := range g.Fanin {
			if v = logic.And5(v, val[f]); v == logic.Zero {
				break
			}
		}
		if g.Type == circuit.Nand {
			v = logic.Not5(v)
		}
		return v
	case circuit.Or, circuit.Nor:
		v := logic.Zero
		for _, f := range g.Fanin {
			if v = logic.Or5(v, val[f]); v == logic.One {
				break
			}
		}
		if g.Type == circuit.Nor {
			v = logic.Not5(v)
		}
		return v
	case circuit.Xor, circuit.Xnor:
		v := logic.Zero
		for _, f := range g.Fanin {
			if v = logic.Xor5(v, val[f]); v == logic.X {
				break
			}
		}
		if g.Type == circuit.Xnor {
			v = logic.Not5(v)
		}
		return v
	case circuit.Not:
		return logic.Not5(val[g.Fanin[0]])
	case circuit.Buf:
		return val[g.Fanin[0]]
	case circuit.Const0:
		return logic.Zero
	case circuit.Const1:
		return logic.One
	}
	return logic.X
}

// pin returns the value gate id sees on pin, with the engine's branch
// fault injected.
func (e *Engine) pin(id, pinIdx int) logic.V5 {
	v := e.val[e.c.Gates[id].Fanin[pinIdx]]
	if e.f.Gate == id && e.f.Pin == pinIdx {
		v = pinTransform(v, e.f.Stuck)
	}
	return v
}

// pinTransform applies a stuck-at fault to a value: the good component is
// kept, the faulty component becomes the stuck value. An unknown good
// component stays X.
func pinTransform(v logic.V5, stuck uint8) logic.V5 {
	switch v {
	case logic.X:
		return logic.X
	case logic.Zero, logic.Dbar: // good 0
		if stuck == 0 {
			return logic.Zero
		}
		return logic.Dbar
	default: // good 1 (One or D)
		if stuck == 1 {
			return logic.One
		}
		return logic.D
	}
}

// evalGate evaluates gate id with the engine's branch fault injected on
// its pins (the stem fault is the caller's to apply).
func (e *Engine) evalGate(id int, g *circuit.Gate) logic.V5 {
	switch g.Type {
	case circuit.And, circuit.Nand:
		v := logic.One
		for pinIdx := range g.Fanin {
			v = logic.And5(v, e.pin(id, pinIdx))
		}
		if g.Type == circuit.Nand {
			v = logic.Not5(v)
		}
		return v
	case circuit.Or, circuit.Nor:
		v := logic.Zero
		for pinIdx := range g.Fanin {
			v = logic.Or5(v, e.pin(id, pinIdx))
		}
		if g.Type == circuit.Nor {
			v = logic.Not5(v)
		}
		return v
	case circuit.Xor, circuit.Xnor:
		v := logic.Zero
		for pinIdx := range g.Fanin {
			v = logic.Xor5(v, e.pin(id, pinIdx))
		}
		if g.Type == circuit.Xnor {
			v = logic.Not5(v)
		}
		return v
	case circuit.Not:
		return logic.Not5(e.pin(id, 0))
	case circuit.Buf:
		return e.pin(id, 0)
	case circuit.Const0:
		return logic.Zero
	case circuit.Const1:
		return logic.One
	}
	return logic.X
}

// observedValue returns the five-valued value seen at an observation
// point: a PO gate's value, or a PPO (DFF driver) value with the capture
// fault injected when the engine's fault sits on that DFF input pin.
func (e *Engine) observedValue(gate int) logic.V5 {
	v := e.val[gate]
	if dff := e.ppoOf[gate]; dff >= 0 {
		if e.f.Gate == dff && e.f.Pin == 0 {
			v = pinTransform(v, e.f.Stuck)
		}
	}
	return v
}

// success reports whether a fault effect reaches an observation point
// (and, when a constraint is active, whether it is satisfied).
func (e *Engine) success() bool {
	if e.constraint != nil && e.val[e.constraint.line] != e.constraint.want {
		return false
	}
	for _, id := range e.c.Outputs {
		if e.val[id].IsError() {
			return true
		}
	}
	for _, d := range e.c.DFFs {
		drv := e.c.Gates[d].Fanin[0]
		if e.observedValue(drv).IsError() {
			return true
		}
	}
	return false
}

// siteValue returns the five-valued value at the fault site (after fault
// injection).
func (e *Engine) siteValue() logic.V5 {
	if e.f.Pin == fault.Stem {
		return e.val[e.f.Gate]
	}
	if e.c.Gates[e.f.Gate].Type == circuit.DFF {
		// Capture fault: the site is the DFF's observed input.
		return e.observedValue(e.c.Gates[e.f.Gate].Fanin[0])
	}
	return e.pin(e.f.Gate, e.f.Pin)
}

// objective picks the next value objective: excite the fault if the site
// is still X; otherwise advance the D-frontier. ok=false means a dead end
// (fault unexcitable under current assignments, or no X-path).
func (e *Engine) objective() (gate int, val logic.V5, ok bool) {
	if c := e.constraint; c != nil {
		switch e.val[c.line] {
		case c.want:
			// satisfied; continue with the fault objectives
		case logic.X:
			return c.line, c.want, true
		default:
			return 0, logic.X, false // constraint violated: dead end
		}
	}
	site := e.siteValue()
	if site == logic.X {
		// Objective: set the fault line to the opposite of the stuck
		// value (in the good machine).
		want := logic.One
		if e.f.Stuck == 1 {
			want = logic.Zero
		}
		return e.activationLine(), want, true
	}
	if !site.IsError() {
		return 0, logic.X, false // fault blocked: site pinned to stuck value
	}
	// D-frontier: a gate with an error on some input and X output.
	frontier := e.dFrontier()
	if len(frontier) == 0 {
		return 0, logic.X, false
	}
	if !e.xPathExists(frontier) {
		return 0, logic.X, false
	}
	gid := frontier[0]
	g := &e.c.Gates[gid]
	// Objective: set an X input to the gate's non-controlling value.
	nc := nonControlling(g.Type)
	for pinIdx, f := range g.Fanin {
		if e.pin(gid, pinIdx) == logic.X {
			return f, nc, true
		}
	}
	return 0, logic.X, false
}

// activationLine returns the gate whose value must be driven to excite
// the fault: the gate itself for stem faults, the pin's driver for branch
// and capture faults.
func (e *Engine) activationLine() int {
	if e.f.Pin == fault.Stem {
		return e.f.Gate
	}
	return e.c.Gates[e.f.Gate].Fanin[e.f.Pin]
}

// nonControlling returns the value to set side inputs for propagation.
func nonControlling(t circuit.GateType) logic.V5 {
	switch t {
	case circuit.And, circuit.Nand:
		return logic.One
	case circuit.Or, circuit.Nor:
		return logic.Zero
	default: // XOR/XNOR/NOT/BUF: any defined value propagates; pick 0.
		return logic.Zero
	}
}

// buildCone computes the fault site's combinational output cone in
// evaluation order. Source assignments are never errors, so an error can
// only appear on the fault site and downstream of it: the fault gate
// itself (a branch fault's pin) and every combinational gate reachable
// from it through fanout. A fault-free search (Gate -1) has no cone.
func (e *Engine) buildCone() {
	e.cone = e.cone[:0]
	if e.f.Gate < 0 {
		return
	}
	e.addToCone(e.f.Gate)
	for _, fo := range e.c.Gates[e.f.Gate].Fanout {
		e.addToCone(fo)
	}
	for i := 0; i < len(e.cone); i++ {
		for _, fo := range e.c.Gates[e.cone[i]].Fanout {
			e.addToCone(fo)
		}
	}
	// Re-list the marked gates in eval order, clearing the marks.
	e.cone = e.cone[:0]
	for _, id := range e.c.EvalOrder() {
		if e.inCone[id] {
			e.inCone[id] = false
			e.cone = append(e.cone, id)
		}
	}
}

// addToCone appends a combinational gate to the cone once.
func (e *Engine) addToCone(id int) {
	if e.level[id] == 0 || e.inCone[id] {
		return
	}
	e.inCone[id] = true
	e.cone = append(e.cone, id)
}

// dFrontier lists gates with an error input and an X output, in
// evaluation order. Only the fault's cone can hold such gates. The
// returned slice is reused by the next call.
func (e *Engine) dFrontier() []int {
	out := e.frontier[:0]
	for _, id := range e.cone {
		if e.val[id] != logic.X {
			continue
		}
		g := &e.c.Gates[id]
		for pinIdx := range g.Fanin {
			if e.pin(id, pinIdx).IsError() {
				out = append(out, id)
				break
			}
		}
	}
	e.frontier = out
	return out
}

// xPathExists checks whether some D-frontier gate still has a path of
// X-valued gates to an observation point.
func (e *Engine) xPathExists(frontier []int) bool {
	e.epoch++
	if e.epoch == 0 { // stamps wrapped: invalidate every entry
		clear(e.memoStamp)
		e.epoch = 1
	}
	for _, id := range frontier {
		// The frontier gate itself may be an observation point.
		if e.isPO[id] || e.ppoOf[id] >= 0 {
			return true
		}
		if e.reach(id) {
			return true
		}
	}
	return false
}

// reach reports whether gate id reaches an observation point through
// X-valued gates, memoized for the current xPathExists call.
func (e *Engine) reach(id int) bool {
	if e.memoStamp[id] == e.epoch {
		return e.memoVal[id]
	}
	e.memoStamp[id] = e.epoch
	e.memoVal[id] = false // break cycles conservatively
	if e.isPO[id] {
		e.memoVal[id] = true
		return true
	}
	for _, fo := range e.c.Gates[id].Fanout {
		if e.c.Gates[fo].Type == circuit.DFF {
			e.memoVal[id] = true // PPO reached
			return true
		}
		if e.val[fo] == logic.X && e.reach(fo) {
			e.memoVal[id] = true
			return true
		}
	}
	return false
}

// backtrace walks an objective back to an unassigned source, flipping the
// target value through inversions and choosing the cheapest input by
// SCOAP controllability.
func (e *Engine) backtrace(gate int, want logic.V5) (src int, val logic.V5, ok bool) {
	id := gate
	v := want
	for steps := 0; steps < e.c.NumGates()+1; steps++ {
		if e.level[id] == 0 { // a source
			if e.assigned[id] != logic.X {
				return 0, logic.X, false // already assigned; objective unreachable this way
			}
			return id, v, true
		}
		g := &e.c.Gates[id]
		if g.Type.Inverting() {
			v = logic.Not5(v)
		}
		// Choose an X input: cheapest to set to v (for XOR-ish gates any
		// input works with the current v).
		best, bestCost := -1, 1<<30
		for pinIdx, f := range g.Fanin {
			if e.pin(id, pinIdx) != logic.X {
				continue
			}
			cost := e.cc1[f]
			if v == logic.Zero {
				cost = e.cc0[f]
			}
			if cost < bestCost {
				best, bestCost = f, cost
			}
		}
		if best < 0 {
			return 0, logic.X, false
		}
		id = best
	}
	return 0, logic.X, false
}

// cube captures the current source assignments as a TestCube.
func (e *Engine) cube() TestCube {
	tc := TestCube{
		PI:    make([]logic.V5, e.c.NumPI()),
		State: make([]logic.V5, e.c.NumSV()),
	}
	for i, id := range e.c.Inputs {
		tc.PI[i] = e.assigned[id]
	}
	for pos, id := range e.c.DFFs {
		tc.State[pos] = e.assigned[id]
	}
	return tc
}

// Summary tallies verdicts over a fault list.
type Summary struct {
	Testable   int
	Untestable int
	Aborted    int
}

// Classify runs Generate on every fault and updates the Set's states for
// untestable faults (Detected faults are left alone). It returns the
// tally. Faults already marked Detected are counted as testable without
// rerunning the search.
func Classify(e *Engine, fs *fault.Set) Summary {
	var sum Summary
	for i, f := range fs.Faults {
		if fs.State[i] == fault.Detected {
			sum.Testable++
			continue
		}
		v, _ := e.Generate(f)
		switch v {
		case Testable:
			sum.Testable++
		case Untestable:
			sum.Untestable++
			fs.State[i] = fault.Untestable
		case Aborted:
			sum.Aborted++
			fs.State[i] = fault.Aborted
		}
	}
	return sum
}
