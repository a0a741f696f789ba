// Package ledger is the persistent performance record of this
// repository: an append-only, schema-versioned JSON-lines file that
// every campaign, fault-simulation session and benchmark sweep appends
// one Record to. Where the obs metrics answer "what did this run do",
// the ledger answers "how does this run compare to every run before it"
// — the measurement backbone perf PRs are judged against (cmd/perf).
//
// Durability discipline: a record is marshaled to one line and appended
// with a single O_APPEND write followed by fsync, under the same
// transient-failure retry policy as the checkpoint writer
// (internal/iofault). Append-only means a crash can at worst leave one
// torn final line; Read therefore tolerates corrupt or truncated lines
// by skipping and reporting them — history is never held hostage to one
// bad write, and a reader never crashes on a hostile file.
package ledger

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"sort"
	"time"

	"limscan/internal/iofault"
	"limscan/internal/obs"
)

// Schema is the record format version. Read skips records with a
// different schema (reported, not fatal): old history stays readable as
// the format evolves, and a new reader never misinterprets old fields.
const Schema = 1

// Record kinds.
const (
	KindCampaign  = "campaign"  // a Procedure 2 campaign (cmd/limscan)
	KindFaultSim  = "faultsim"  // a standalone simulation session (cmd/faultsim)
	KindBenchFsim = "benchfsim" // a worker-scaling sweep (cmd/benchfsim)
	KindService   = "service"   // one campaign-service job (cmd/limscand)
	KindWorker    = "worker"    // one fleet-worker session (cmd/limsworker)
)

// PhaseSeconds is one per-phase wall-time row, copied from the obs phase
// spans at run end.
type PhaseSeconds struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	Seconds float64 `json:"seconds"`
}

// BenchPoint is one (mode, worker count) cell of a benchfsim sweep. Mode
// is the fsim mode's flag spelling ("fault-parallel", "pattern-parallel");
// empty means a pre-mode-sweep record, read as fault-parallel. Speedup is
// relative to the same mode's Workers=1 point.
type BenchPoint struct {
	Mode    string  `json:"mode,omitempty"`
	Workers int     `json:"workers"`
	NsPerOp int64   `json:"ns_per_op"`
	Speedup float64 `json:"speedup_vs_workers1"`
}

// Record is one run's performance accounting. Fields that do not apply
// to a kind stay zero and are omitted from the encoding.
type Record struct {
	Schema int       `json:"schema"`
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"`

	// Run identity: the circuit, a hash of every result-affecting
	// parameter (two records with equal ParamsHash did the same work, so
	// their timings are directly comparable), and the knobs that change
	// speed without changing results.
	Circuit    string `json:"circuit"`
	ParamsHash string `json:"params_hash,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	Workers    int    `json:"workers,omitempty"`

	// Host context, so a regression on a different machine reads as the
	// machine's difference, not the code's.
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version,omitempty"`
	Host       string `json:"host,omitempty"`

	// What the run computed (the paper's coverage/cost axes).
	Faults      int     `json:"faults,omitempty"`
	Detected    int     `json:"detected,omitempty"`
	Coverage    float64 `json:"coverage,omitempty"`
	TotalCycles int64   `json:"total_cycles,omitempty"`

	// Where the time went.
	WallSeconds       float64        `json:"wall_seconds"`
	Phases            []PhaseSeconds `json:"phases,omitempty"`
	WorkerBusySeconds float64        `json:"worker_busy_seconds,omitempty"`
	WorkerWaitSeconds float64        `json:"worker_wait_seconds,omitempty"`

	// Where the memory went (from the internal/prof runtime sampler).
	PeakHeapBytes       uint64  `json:"peak_heap_bytes,omitempty"`
	AllocBytesTotal     uint64  `json:"alloc_bytes_total,omitempty"`
	GCPauseSecondsTotal float64 `json:"gc_pause_seconds_total,omitempty"`
	NumGC               uint32  `json:"num_gc,omitempty"`

	// Execution-trace decomposition (from internal/trace, runs with
	// -trace): the Amdahl serial fraction and the speedup it caps any
	// worker count at. Zero means "not traced" — records predating
	// tracing simply lack the keys, and Metrics omits them so old
	// records diff and check cleanly against new ones.
	SerialFraction float64 `json:"serial_fraction,omitempty"`
	MaxSpeedup     float64 `json:"max_speedup,omitempty"`

	// DegenerateParallelism flags a sweep measured on a host that could
	// not actually run the workers in parallel (NumCPU < 2, or
	// GOMAXPROCS below the widest point): its speedup column measures
	// scheduling overhead, not scaling.
	DegenerateParallelism bool `json:"degenerate_parallelism,omitempty"`

	// PatternSpeedup is the single-thread PPSFP win a benchfsim mode
	// sweep measured: fault-parallel ns_per_op over pattern-parallel
	// ns_per_op, both at Workers=1. Zero when the sweep did not cover
	// both modes at Workers=1. This is the metric perf check gates the
	// pattern-parallel kernel on (scripts/perf_baseline_fsim.json).
	PatternSpeedup float64 `json:"pattern_speedup_w1,omitempty"`
	// PatternSpeedupLimscan is the same ratio on the sweep's TS0 after
	// Procedure 1 inserted limited scans (I=1, D1=1): every test carries
	// its own shift schedule, so it times the mixed-shift pattern words.
	PatternSpeedupLimscan float64 `json:"pattern_speedup_limscan_w1,omitempty"`

	// Points carries a benchfsim mode × worker sweep.
	Points []BenchPoint `json:"points,omitempty"`

	// Service-job accounting (KindService records). JobID names the
	// campaign-service job the record belongs to. CacheHit marks a
	// submission served from the memoized results cache: no simulation
	// ran, so its WallSeconds measure lookup latency, not campaign cost
	// — the record exists precisely so "heavy repeat traffic" shows up
	// in history as cache hits rather than as impossibly fast campaigns.
	// Recovered marks a job re-queued from its checkpoint after a
	// restart; its wall time covers only the resumed tail.
	JobID     string `json:"job_id,omitempty"`
	CacheHit  bool   `json:"cache_hit,omitempty"`
	Recovered bool   `json:"recovered,omitempty"`

	// Dispatch carries the distributed-fleet accounting of a service
	// running with a lease coordinator (-distributed). Values are the
	// coordinator's cumulative counters at record time — the fleet
	// outlives individual jobs, so deltas between consecutive records
	// attribute work to one job.
	Dispatch *DispatchStats `json:"dispatch,omitempty"`
}

// DispatchStats mirrors the dispatch_* counter family: unit flow
// (total/done/local), fault-tolerance events (expired leases, fenced
// zombie results, duplicate deliveries), and fleet membership.
type DispatchStats struct {
	Units         int64 `json:"units"`
	UnitsDone     int64 `json:"units_done"`
	LocalUnits    int64 `json:"local_units,omitempty"`
	Leases        int64 `json:"leases,omitempty"`
	Expired       int64 `json:"expired,omitempty"`
	Fenced        int64 `json:"fenced,omitempty"`
	Duplicates    int64 `json:"duplicates,omitempty"`
	WorkersJoined int64 `json:"workers_joined,omitempty"`
	WorkersLost   int64 `json:"workers_lost,omitempty"`
}

// DispatchFromObs fills Dispatch from the dispatch_* counters in o —
// a no-op (Dispatch stays nil) when o records no dispatched units,
// so non-distributed records keep their old shape byte for byte.
func (r *Record) DispatchFromObs(o *obs.Campaign) {
	if o == nil {
		return
	}
	units := o.Counter("dispatch_units_total").Value()
	if units == 0 {
		return
	}
	r.Dispatch = &DispatchStats{
		Units:         units,
		UnitsDone:     o.Counter("dispatch_units_done_total").Value(),
		LocalUnits:    o.Counter("dispatch_local_units_total").Value(),
		Leases:        o.Counter("dispatch_leases_total").Value(),
		Expired:       o.Counter("dispatch_expired_total").Value(),
		Fenced:        o.Counter("dispatch_fenced_total").Value(),
		Duplicates:    o.Counter("dispatch_duplicates_total").Value(),
		WorkersJoined: o.Counter("dispatch_workers_joined_total").Value(),
		WorkersLost:   o.Counter("dispatch_workers_lost_total").Value(),
	}
}

// Stamp fills the schema, timestamp and host-context fields. CLIs call
// it once, just before Append.
func (r *Record) Stamp() {
	r.Schema = Schema
	if r.Time.IsZero() {
		r.Time = time.Now().UTC()
	}
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.NumCPU = runtime.NumCPU()
	r.GoVersion = runtime.Version()
	if h, err := os.Hostname(); err == nil {
		r.Host = h
	}
}

// FromObs copies the observer's end-of-run accounting into the record:
// the phase spans, the worker busy/wait totals (histogram sums), and the
// runtime sampler's gauges. A nil observer leaves the record untouched.
func (r *Record) FromObs(o *obs.Campaign) {
	if o == nil {
		return
	}
	for _, p := range o.PhaseSummary() {
		r.Phases = append(r.Phases, PhaseSeconds{Name: p.Name, Count: p.Count, Seconds: p.Total.Seconds()})
	}
	r.WorkerBusySeconds = o.Histogram("fsim_worker_busy_seconds").Sum()
	r.WorkerWaitSeconds = o.Histogram("fsim_worker_wait_seconds").Sum()
	r.PeakHeapBytes = uint64(o.Gauge("runtime_heap_bytes_peak").Value())
	r.AllocBytesTotal = uint64(o.Gauge("runtime_alloc_bytes_total").Value())
	r.GCPauseSecondsTotal = o.Gauge("runtime_gc_pause_seconds_total").Value()
	r.NumGC = uint32(o.Gauge("runtime_gc_total").Value())
}

// HashParams digests any JSON-marshalable parameter block into the hex
// string ParamsHash expects — for callers (benchfsim) that have no
// checkpoint.Meta to borrow a hash from.
func HashParams(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return ""
	}
	return fmt.Sprintf("%08x", crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// Append marshals the record to one line and appends it to path with a
// single write plus fsync, retrying transient failures with the given
// policy (nil means the iofault defaults). The file is created if
// missing. Appends from concurrent processes interleave at line
// granularity: O_APPEND single-write on POSIX filesystems, backed by an
// exclusive advisory flock held across the write+fsync on platforms
// that have it (see flock_unix.go), so a service fleet and ad-hoc CLI
// runs can share one ledger file safely.
func Append(path string, r *Record, retry *iofault.Retry) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("ledger: %w", err) // unmarshalable record is a bug
	}
	line = append(line, '\n')
	op := func() error {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if err := lockAppend(f.Fd()); err != nil {
			f.Close()
			// Lock contention/interruption says nothing durable about the
			// next attempt.
			return iofault.MarkTransient(err)
		}
		defer func() { _ = unlockAppend(f.Fd()) }()
		if _, err := f.Write(line); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			// Like the checkpoint writer: an fsync failure says nothing
			// durable about the next attempt.
			return iofault.MarkTransient(err)
		}
		return f.Close()
	}
	if err := retry.Do(op); err != nil {
		return fmt.Errorf("ledger: append %s: %w", path, err)
	}
	return nil
}

// LineError reports one skipped ledger line.
type LineError struct {
	Line int // 1-based line number in the file
	Err  error
}

func (e LineError) Error() string { return fmt.Sprintf("ledger: line %d: %v", e.Line, e.Err) }

// Read parses every valid record in the file, in file order. Lines that
// fail to parse or carry an unknown schema are skipped and reported in
// the second return — a torn final line (crash mid-append) or a foreign
// schema must never make history unreadable. The error return is
// reserved for not being able to read the file at all.
func Read(path string) ([]Record, []LineError, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("ledger: %w", err)
	}
	return Parse(data)
}

// Parse is Read over bytes already in hand.
func Parse(data []byte) ([]Record, []LineError, error) {
	var recs []Record
	var skipped []LineError
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		var line []byte
		if i := indexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			line, data = data, nil
		}
		if len(trimSpace(line)) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			skipped = append(skipped, LineError{Line: lineNo, Err: err})
			continue
		}
		if r.Schema != Schema {
			skipped = append(skipped, LineError{Line: lineNo,
				Err: fmt.Errorf("schema %d, this build reads %d", r.Schema, Schema)})
			continue
		}
		recs = append(recs, r)
	}
	return recs, skipped, nil
}

func indexByte(b []byte, c byte) int {
	for i := range b {
		if b[i] == c {
			return i
		}
	}
	return -1
}

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// Filter returns the records matching kind and circuit (empty matches
// everything), preserving order.
func Filter(recs []Record, kind, circuit string) []Record {
	var out []Record
	for _, r := range recs {
		if (kind == "" || r.Kind == kind) && (circuit == "" || r.Circuit == circuit) {
			out = append(out, r)
		}
	}
	return out
}

// Latest returns the last record matching kind and circuit, or nil.
func Latest(recs []Record, kind, circuit string) *Record {
	m := Filter(recs, kind, circuit)
	if len(m) == 0 {
		return nil
	}
	return &m[len(m)-1]
}

// Metrics flattens the record's comparable scalars into name -> value:
// the top-level performance numbers plus one `phase_seconds/<name>` row
// per phase. These names are the vocabulary of perf diff and the
// baseline file of perf check.
func (r *Record) Metrics() map[string]float64 {
	m := map[string]float64{
		"wall_seconds": r.WallSeconds,
		"coverage":     r.Coverage,
		"detected":     float64(r.Detected),
		"total_cycles": float64(r.TotalCycles),
	}
	if r.WorkerBusySeconds > 0 {
		m["worker_busy_seconds"] = r.WorkerBusySeconds
	}
	if r.WorkerWaitSeconds > 0 {
		m["worker_wait_seconds"] = r.WorkerWaitSeconds
	}
	if r.PeakHeapBytes > 0 {
		m["peak_heap_bytes"] = float64(r.PeakHeapBytes)
	}
	if r.AllocBytesTotal > 0 {
		m["alloc_bytes_total"] = float64(r.AllocBytesTotal)
	}
	if r.GCPauseSecondsTotal > 0 {
		m["gc_pause_seconds_total"] = r.GCPauseSecondsTotal
	}
	if r.NumGC > 0 {
		m["num_gc"] = float64(r.NumGC)
	}
	if r.SerialFraction > 0 {
		m["serial_fraction"] = r.SerialFraction
	}
	if r.MaxSpeedup > 0 {
		m["max_speedup"] = r.MaxSpeedup
	}
	for _, p := range r.Phases {
		m["phase_seconds/"+p.Name] = p.Seconds
	}
	if r.PatternSpeedup > 0 {
		m["pattern_speedup_w1"] = r.PatternSpeedup
	}
	if r.PatternSpeedupLimscan > 0 {
		m["pattern_speedup_limscan_w1"] = r.PatternSpeedupLimscan
	}
	for _, p := range r.Points {
		if p.Mode != "" {
			m[fmt.Sprintf("ns_per_op/mode=%s/workers=%d", p.Mode, p.Workers)] = float64(p.NsPerOp)
		} else {
			// Pre-mode-sweep records keep their legacy metric names, so old
			// baselines keep checking and old-vs-new diffs line up.
			m[fmt.Sprintf("ns_per_op/workers=%d", p.Workers)] = float64(p.NsPerOp)
		}
	}
	return m
}

// DiffRow compares one metric across two records. A and B are NaN-free:
// a metric missing on one side reports Present accordingly and zero for
// the absent value.
type DiffRow struct {
	Name     string
	A, B     float64
	PresentA bool
	PresentB bool
}

// Delta is B - A.
func (d DiffRow) Delta() float64 { return d.B - d.A }

// Ratio is B / A (0 when A is 0).
func (d DiffRow) Ratio() float64 {
	if d.A == 0 {
		return 0
	}
	return d.B / d.A
}

// Diff lines the two records' metrics up by name, sorted.
func Diff(a, b *Record) []DiffRow {
	ma, mb := a.Metrics(), b.Metrics()
	names := make(map[string]bool, len(ma)+len(mb))
	for n := range ma {
		names[n] = true
	}
	for n := range mb {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	out := make([]DiffRow, 0, len(sorted))
	for _, n := range sorted {
		va, oka := ma[n]
		vb, okb := mb[n]
		out = append(out, DiffRow{Name: n, A: va, B: vb, PresentA: oka, PresentB: okb})
	}
	return out
}
