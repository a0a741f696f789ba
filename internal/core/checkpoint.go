package core

import (
	"context"
	"fmt"
	"time"

	"limscan/internal/checkpoint"
	"limscan/internal/circuit"
	"limscan/internal/errs"
	"limscan/internal/fault"
	"limscan/internal/iofault"
	"limscan/internal/obs"
	"limscan/internal/trace"
)

// CheckpointOptions controls periodic campaign snapshotting during
// RunWithContext / ResumeWithContext.
type CheckpointOptions struct {
	// Path is the snapshot file. It is rewritten atomically (write-temp,
	// fsync, rename), so it always holds the latest complete snapshot.
	Path string
	// Every writes a snapshot after every Every-th completed iteration.
	// Zero means 1 (every iteration). The snapshot after the TS0 phase
	// and the final snapshot at campaign end are always written, and a
	// context cancellation flushes the last iteration boundary
	// regardless of cadence.
	Every int
	// FS routes the snapshot I/O; nil means the real filesystem. Chaos
	// tests substitute an iofault.Injector here.
	FS iofault.FS
	// Retry overrides the transient-failure retry policy for snapshot
	// writes; nil means the iofault defaults (4 attempts, capped
	// exponential backoff).
	Retry *iofault.Retry
}

// InterruptedError is the error RunWithContext returns on cancellation:
// the campaign state as of the reported iteration is in the checkpoint
// at Path. It is an alias of checkpoint.InterruptedError so the CLIs
// can match either a runner or a simulator interruption with one
// errors.As.
type InterruptedError = checkpoint.InterruptedError

// CheckpointMeta returns the identity block a Procedure 2 snapshot for
// this runner and configuration carries: the structural circuit hash,
// the scan plan length, and every result-affecting parameter. Workers
// and Observer are deliberately excluded — they change how fast a
// campaign runs, never what it computes, so a checkpoint taken under one
// may be resumed under another.
func (r *Runner) CheckpointMeta(cfg Config) checkpoint.Meta {
	return metaFor(r.c, r.plan.Len(), cfg)
}

// metaFor is the shared identity constructor behind CheckpointMeta and
// JobParamsHash.
func metaFor(c *circuit.Circuit, planLen int, cfg Config) checkpoint.Meta {
	cfg = cfg.withDefaults()
	return checkpoint.Meta{
		Mode:          checkpoint.ModeProcedure2,
		Circuit:       c.Name,
		CircuitHash:   checkpoint.CircuitHash(c),
		PlanLen:       planLen,
		LA:            cfg.LA,
		LB:            cfg.LB,
		N:             cfg.N,
		Seed:          cfg.Seed,
		D1Order:       cfg.D1Order,
		NSameFC:       cfg.NSameFC,
		MaxIterations: cfg.MaxIterations,
		ReseedPerTest: cfg.ReseedPerTest,
		UseLFSR:       cfg.UseLFSR,
		LFSRDegree:    cfg.LFSRDegree,
	}
}

// ParamsHash digests every result-affecting parameter of a campaign
// into a short hex string — the run-identity key the performance ledger
// records, so `perf diff` can tell "same work, different speed" apart
// from "different work". It is the checkpoint Meta hash: the two
// subsystems agreeing on one identity means a ledger record and a
// checkpoint from the same run are cross-referencable.
func (r *Runner) ParamsHash(cfg Config) string {
	return r.CheckpointMeta(cfg).Hash()
}

// snapshot captures the campaign state at an iteration boundary. The
// fault set is copied bit-packed; everything else is already scalar.
func (r *Runner) snapshot(cfg Config, res *Result, fs *fault.Set, nSame int) *checkpoint.Snapshot {
	s := &checkpoint.Snapshot{
		Version:         checkpoint.Version,
		Meta:            r.CheckpointMeta(cfg),
		Iteration:       res.Iterations,
		NSame:           nSame,
		InitialDetected: res.InitialDetected,
		InitialCycles:   res.InitialCycles,
		TotalCycles:     res.TotalCycles,
		Untestable:      res.Untestable,
		NumFaults:       len(fs.State),
		States:          checkpoint.EncodeStates(fs.State),
	}
	for _, p := range res.Pairs {
		s.Pairs = append(s.Pairs, checkpoint.Pair{I: p.I, D1: p.D1, Detected: p.Detected, Cycles: p.Cycles})
	}
	for _, cp := range res.Curve {
		s.Curve = append(s.Curve, checkpoint.CurvePoint{
			I: cp.I, D1: cp.D1, Detected: cp.Detected, Cycles: cp.Cycles, Coverage: cp.Coverage,
		})
	}
	return s
}

// restore rebuilds the in-flight campaign state of a run from a
// snapshot: fault statuses, selected pairs, curve points, accumulated
// totals. It returns the running detection count and the nSame counter.
func restore(snap *checkpoint.Snapshot, res *Result, fs *fault.Set) (running, nSame int, err error) {
	states, err := checkpoint.DecodeStates(snap.States, snap.NumFaults)
	if err != nil {
		return 0, 0, err
	}
	if len(states) != len(fs.State) {
		return 0, 0, fmt.Errorf("core: snapshot holds %d faults, circuit has %d", len(states), len(fs.State))
	}
	copy(fs.State, states)
	res.InitialDetected = snap.InitialDetected
	res.InitialCycles = snap.InitialCycles
	res.TotalCycles = snap.TotalCycles
	res.Untestable = snap.Untestable
	res.Iterations = snap.Iteration
	running = snap.InitialDetected
	for _, p := range snap.Pairs {
		res.Pairs = append(res.Pairs, PairResult{I: p.I, D1: p.D1, Detected: p.Detected, Cycles: p.Cycles})
		running += p.Detected
	}
	for _, cp := range snap.Curve {
		res.Curve = append(res.Curve, CoveragePoint{
			I: cp.I, D1: cp.D1, Detected: cp.Detected, Cycles: cp.Cycles, Coverage: cp.Coverage,
		})
	}
	return running, snap.NSame, nil
}

// checkpointWriter bundles the write-side bookkeeping of a run: cadence,
// metrics, the checkpoint event, and the degraded-mode state machine.
//
// Degraded mode: a snapshot write that still fails after the retry
// policy's budget does NOT abort the campaign. Checkpointing is purely
// observational — Procedure 2's greedy accumulation never reads the
// snapshot back — so losing a boundary costs only resume granularity,
// never correctness. The writer raises the checkpoint_degraded gauge,
// counts the failure, emits a loud event, and simply tries again at the
// next boundary; a later success clears the state. Only a campaign that
// ends with its final snapshot unwritten reports degraded completion.
type checkpointWriter struct {
	opts *CheckpointOptions
	o    *obs.Campaign
	// tr, when set, records a checkpoint_write span around every disk
	// write — checkpoint I/O is serial time the trace diagnoser charges
	// against scaling.
	tr *trace.Recorder
	// last is the most recent iteration-boundary snapshot, whether or
	// not the cadence wrote it; a cancellation flushes it.
	last *checkpoint.Snapshot
	// iteration mirrors the last completed iteration even when
	// checkpointing is disabled (for the InterruptedError report).
	iteration int
	// degraded is set while the most recent write attempt exhausted its
	// retries; failures counts the consecutive failed boundaries.
	degraded bool
	failures int
	// wroteIter is the iteration of the last snapshot that actually
	// reached disk (-1 before any write) — what an interruption during
	// degraded mode can truthfully report.
	wroteIter int
}

// enabled reports whether boundary snapshots are being collected.
func (w *checkpointWriter) enabled() bool {
	return w.opts != nil && w.opts.Path != ""
}

// boundary records an iteration boundary: when checkpointing is enabled
// it captures a snapshot and writes it per the cadence (force bypasses
// the cadence); otherwise it only tracks the iteration number.
func (w *checkpointWriter) boundary(r *Runner, cfg Config, res *Result, fs *fault.Set, nSame int, force bool) error {
	w.iteration = res.Iterations
	if !w.enabled() {
		return nil
	}
	return w.note(r.snapshot(cfg, res, fs, nSame), force)
}

// every resolves the write cadence.
func (w *checkpointWriter) every() int {
	if w.opts == nil || w.opts.Every < 1 {
		return 1
	}
	return w.opts.Every
}

// note records a fresh boundary snapshot and writes it when the cadence
// says so (or when force is set — the TS0 boundary and the final state).
func (w *checkpointWriter) note(s *checkpoint.Snapshot, force bool) error {
	w.last = s
	if w.opts == nil || w.opts.Path == "" {
		return nil
	}
	if !force && s.Iteration%w.every() != 0 {
		return nil
	}
	return w.flush()
}

// flush writes the last noted snapshot unconditionally. An I/O failure
// that survived the retry policy degrades the writer instead of failing
// the campaign; only a snapshot that cannot be encoded (a bug) is
// returned as an error.
func (w *checkpointWriter) flush() error {
	if w.opts == nil || w.opts.Path == "" || w.last == nil {
		return nil
	}
	t0 := time.Now()
	n, err := checkpoint.SaveFS(w.opts.FS, w.opts.Path, w.last, w.opts.Retry)
	if w.tr != nil {
		w.tr.Track(trace.MainTrack).Add(trace.CatCheckpoint, trace.SpanCheckpoint,
			w.tr.Rel(t0), time.Since(t0), trace.KV{K: "bytes", V: int64(n)})
	}
	if err != nil {
		if errs.Is(err, errs.TransientIO) {
			w.degrade(err)
			return nil
		}
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if w.degraded {
		w.degraded = false
		w.failures = 0
		w.o.Gauge("checkpoint_degraded").Set(0)
		w.o.Emit(obs.Event{Kind: obs.KindWarning,
			Msg: fmt.Sprintf("checkpoint writes recovered at iteration %d; snapshot is fresh again", w.last.Iteration)})
	}
	w.wroteIter = w.last.Iteration
	w.o.Counter("checkpoint_writes_total").Inc()
	w.o.Histogram("checkpoint_bytes", 1<<10, 1<<12, 1<<14, 1<<16, 1<<18, 1<<20, 1<<22).Observe(float64(n))
	w.o.Histogram("checkpoint_write_seconds").Observe(time.Since(t0).Seconds())
	w.o.Emit(obs.Event{Kind: obs.KindCheckpoint, I: w.last.Iteration, N: n})
	return nil
}

// degrade records one exhausted-retries write failure and keeps the
// campaign running.
func (w *checkpointWriter) degrade(err error) {
	w.degraded = true
	w.failures++
	w.o.Counter("checkpoint_write_failures_total").Inc()
	w.o.Gauge("checkpoint_degraded").Set(1)
	w.o.Emit(obs.Event{Kind: obs.KindDegraded, N: w.failures,
		Msg: fmt.Sprintf("checkpoint write failed after retries (campaign continues; on-disk snapshot is stale): %v", err)})
}

// interrupt flushes the last boundary snapshot and wraps the context
// error. The flushed state is the last *completed* iteration: work from
// a partially executed iteration is discarded, and a resumed run redoes
// that iteration from its start — which, being a pure function of the
// restored fault set and (Seed, I), reproduces it exactly.
func (w *checkpointWriter) interrupt(cause error) error {
	_ = w.flush()
	ie := &InterruptedError{Iteration: w.iteration, Err: cause}
	if w.last != nil {
		ie.Iteration = w.last.Iteration
	}
	if w.degraded && w.wroteIter >= 0 {
		// The flush above failed too: the file still holds the older
		// snapshot, so report the iteration that is actually on disk.
		ie.Iteration = w.wroteIter
	}
	if w.opts != nil {
		ie.Path = w.opts.Path
	}
	return ie
}

// RunWithContext is RunProcedure2 with cooperative cancellation and
// optional checkpointing: ctx is polled at every iteration and pair
// boundary (and between fault batches inside the simulator), and a
// non-nil ck writes periodic snapshots that ResumeWithContext can
// continue from. On cancellation the last completed iteration is
// flushed to ck.Path and an *InterruptedError is returned.
func (r *Runner) RunWithContext(ctx context.Context, cfg Config, ck *CheckpointOptions) (*Result, error) {
	return r.run(ctx, cfg, ck, nil)
}

// ResumeWithContext continues a campaign from a snapshot produced by
// RunWithContext on an equivalent runner and configuration. The
// snapshot's identity hash must match this run's circuit, scan plan and
// parameters exactly; a mismatch is an error, never a wrong-answer run.
// The result is identical to what the uninterrupted run would have
// produced (see TestResumeEquivalence*).
func (r *Runner) ResumeWithContext(ctx context.Context, cfg Config, snap *checkpoint.Snapshot, ck *CheckpointOptions) (*Result, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if err := snap.CheckMeta(r.CheckpointMeta(cfg)); err != nil {
		return nil, err
	}
	return r.run(ctx, cfg, ck, snap)
}
