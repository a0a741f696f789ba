package dispatch

import (
	"fmt"
	"sync/atomic"
	"time"

	"limscan/internal/core"
	"limscan/internal/fsim"
	"limscan/internal/trace"
)

// CampaignExec adapts a Coordinator to core.SessionRunner: each
// fault-simulation session of a campaign is partitioned into leased
// units, scattered to the fleet, and merged back in unit order. The
// merge plus unit purity make the campaign byte-identical to an
// in-process run (proved end to end by the chaos suite and `make
// dispatchsmoke`).
type CampaignExec struct {
	// Coord is the lease coordinator (shared with the HTTP handlers).
	Coord *Coordinator
	// Chunk is the per-unit fault count (0 means
	// core.DefaultUnitFaults; rounded up to a batch-width multiple).
	Chunk int
	// Prefix namespaces unit keys, so units from different jobs sharing
	// one coordinator can never collide (use the job id).
	Prefix string

	seq atomic.Int64
}

// RunSession implements core.SessionRunner. It performs the same
// observer bookkeeping fsim.Run would (fsim_* counters, the run span),
// so a distributed campaign's ledger records stay comparable with a
// single-process one.
func (e *CampaignExec) RunSession(req core.SessionRequest) (fsim.RunStats, error) {
	var stats fsim.RunStats
	stats.Cycles = req.Runner.SessionCycles(req.Tests)
	prefix := fmt.Sprintf("%s/s%d.i%d.d%d", e.Prefix, e.seq.Add(1), req.Session.I, req.Session.D1)
	units := core.DeriveUnits(req, prefix, e.Chunk)

	// The kernel every unit of this session picks (the choice ignores
	// the fault count, so units agree with each other and with an
	// in-process run).
	kernel := req.Runner.SessionKernel(req.Tests, req.Faults, req.Options)
	tr := req.Options.Trace
	var runStart time.Duration
	if tr != nil {
		runStart = tr.Now()
	}
	// The fleet's coordinator recorder always exists and mirrors the
	// run/merge brackets, so the stitched trace shows the coordinator's
	// critical path even when the job itself runs untraced. All appends
	// here happen on the campaign goroutine (the track's owner).
	fleetMain := e.Coord.Fleet().Coord()
	fleetStart := fleetMain.Now()
	if len(units) > 0 {
		local := func(spec core.UnitSpec) (*core.UnitResult, error) {
			return core.ExecUnitLocal(req, spec)
		}
		results, err := e.Coord.RunUnitsTraced(req.Options.Ctx, units, local, tr)
		if err != nil {
			return stats, err
		}
		mergeStart, fleetMergeStart := tr.Now(), fleetMain.Now()
		merged, err := core.MergeUnits(req.Faults, units, results)
		if err != nil {
			return stats, err
		}
		if tr != nil {
			tr.Track(trace.MainTrack).Add(trace.CatMerge, trace.SpanMerge, mergeStart, tr.Now()-mergeStart,
				trace.KV{K: "units", V: int64(len(units))})
		}
		fleetMain.Track(trace.MainTrack).Add(trace.CatMerge, trace.SpanMerge,
			fleetMergeStart, fleetMain.Now()-fleetMergeStart,
			trace.KV{K: "units", V: int64(len(units))})
		merged.Cycles = stats.Cycles
		stats = merged
	}
	if tr != nil {
		tr.Track(trace.MainTrack).Add(trace.CatRun, trace.SpanRun, runStart, tr.Now()-runStart,
			trace.KV{K: "units", V: int64(len(units))},
			trace.KV{K: "mode", V: int64(kernel)})
	}
	fleetMain.Track(trace.MainTrack).Add(trace.CatRun, trace.SpanRun, fleetStart, fleetMain.Now()-fleetStart,
		trace.KV{K: "units", V: int64(len(units))},
		trace.KV{K: "mode", V: int64(kernel)})
	if o := req.Options.Obs; o != nil {
		o.Gauge("fsim_mode").Set(float64(kernel))
		o.Counter("fsim_runs_total").Inc()
		o.Counter("fsim_tests_total").Add(int64(len(req.Tests)))
		o.Counter("fsim_batches_total").Add(int64(stats.Batches))
		o.Counter("fsim_cycles_total").Add(stats.Cycles)
		o.Counter("fsim_detected_total").Add(int64(stats.Detected))
		o.Counter("fsim_detected_po_total").Add(int64(stats.DetectedAtPO))
		o.Counter("fsim_detected_limited_scan_total").Add(int64(stats.DetectedAtLimitedScan))
		o.Counter("fsim_detected_scan_out_total").Add(int64(stats.DetectedAtScanOut))
	}
	return stats, nil
}
