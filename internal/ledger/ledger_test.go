package ledger

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"limscan/internal/obs"
)

func sampleRecord(kind, circuit string, wall float64) *Record {
	return &Record{
		Kind:        kind,
		Circuit:     circuit,
		ParamsHash:  "deadbeef",
		Seed:        42,
		Workers:     4,
		Faults:      100,
		Detected:    95,
		Coverage:    0.95,
		TotalCycles: 12345,
		WallSeconds: wall,
		Phases: []PhaseSeconds{
			{Name: "ts0_sim", Count: 1, Seconds: wall * 0.3},
			{Name: "search", Count: 1, Seconds: wall * 0.6},
		},
		PeakHeapBytes: 1 << 20,
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	a := sampleRecord(KindCampaign, "s298", 1.5)
	a.Stamp()
	b := sampleRecord(KindCampaign, "s298", 1.7)
	b.Stamp()
	for _, r := range []*Record{a, b} {
		if err := Append(path, r, nil); err != nil {
			t.Fatal(err)
		}
	}

	recs, skipped, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Errorf("clean file reported skips: %v", skipped)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].WallSeconds != 1.5 || recs[1].WallSeconds != 1.7 {
		t.Errorf("order or values wrong: %+v", recs)
	}
	if recs[0].Schema != Schema || recs[0].GOMAXPROCS == 0 || recs[0].GoVersion == "" {
		t.Errorf("Stamp fields missing: %+v", recs[0])
	}
	if len(recs[0].Phases) != 2 || recs[0].Phases[1].Name != "search" {
		t.Errorf("phases lost in round trip: %+v", recs[0].Phases)
	}
}

// TestReadTolerance: corruption in the middle and a torn final line must
// skip-and-report, never fail the read or drop valid neighbours.
func TestReadTolerance(t *testing.T) {
	good, err := json.Marshal(sampleRecord(KindCampaign, "s27", 1))
	if err != nil {
		t.Fatal(err)
	}
	var g Record
	_ = json.Unmarshal(good, &g)
	g.Schema = Schema
	good, _ = json.Marshal(g)

	foreign, _ := json.Marshal(Record{Schema: Schema + 1, Kind: KindCampaign})
	torn := good[:len(good)/2]

	content := strings.Join([]string{
		string(good),
		"{not json at all",
		"", // blank lines are fine
		string(foreign),
		string(good),
		string(torn), // torn final line, no trailing newline
	}, "\n")
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, skipped, err := Read(path)
	if err != nil {
		t.Fatalf("tolerant read failed outright: %v", err)
	}
	if len(recs) != 2 {
		t.Errorf("got %d records, want 2 (skips: %v)", len(recs), skipped)
	}
	if len(skipped) != 3 {
		t.Errorf("got %d skips, want 3 (corrupt, foreign schema, torn): %v", len(skipped), skipped)
	}
	for _, s := range skipped {
		if s.Line == 0 || s.Err == nil {
			t.Errorf("skip without position or cause: %+v", s)
		}
	}
}

func TestReadMissingFile(t *testing.T) {
	if _, _, err := Read(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Error("missing file must be a real error, not an empty history")
	}
}

func TestFilterLatest(t *testing.T) {
	recs := []Record{
		*sampleRecord(KindCampaign, "s27", 1),
		*sampleRecord(KindFaultSim, "s298", 2),
		*sampleRecord(KindCampaign, "s298", 3),
		*sampleRecord(KindCampaign, "s298", 4),
	}
	if got := Filter(recs, KindCampaign, "s298"); len(got) != 2 {
		t.Errorf("Filter: got %d, want 2", len(got))
	}
	if got := Filter(recs, "", ""); len(got) != 4 {
		t.Errorf("Filter all: got %d, want 4", len(got))
	}
	last := Latest(recs, KindCampaign, "s298")
	if last == nil || last.WallSeconds != 4 {
		t.Errorf("Latest = %+v, want wall 4", last)
	}
	if Latest(recs, KindBenchFsim, "") != nil {
		t.Error("Latest on no match must be nil")
	}
}

func TestFromObs(t *testing.T) {
	o := obs.New(nil, nil)
	o.StartPhase("ts0_sim").End()
	o.Histogram("fsim_worker_busy_seconds", 1, 10).Observe(2.5)
	o.Histogram("fsim_worker_wait_seconds", 1, 10).Observe(0.5)
	o.Gauge("runtime_heap_bytes_peak").Set(4096)
	o.Gauge("runtime_alloc_bytes_total").Set(8192)
	o.Gauge("runtime_gc_pause_seconds_total").Set(0.01)
	o.Gauge("runtime_gc_total").Set(3)

	var r Record
	r.FromObs(o)
	if len(r.Phases) != 1 || r.Phases[0].Name != "ts0_sim" {
		t.Errorf("phases: %+v", r.Phases)
	}
	if r.WorkerBusySeconds != 2.5 || r.WorkerWaitSeconds != 0.5 {
		t.Errorf("busy/wait: %g/%g", r.WorkerBusySeconds, r.WorkerWaitSeconds)
	}
	if r.PeakHeapBytes != 4096 || r.AllocBytesTotal != 8192 || r.NumGC != 3 {
		t.Errorf("runtime fields: %+v", r)
	}

	var untouched Record
	untouched.FromObs(nil)
	if len(untouched.Phases) != 0 || untouched.PeakHeapBytes != 0 {
		t.Errorf("nil observer mutated record: %+v", untouched)
	}
}

func TestMetricsAndDiff(t *testing.T) {
	a := sampleRecord(KindCampaign, "s298", 2)
	b := sampleRecord(KindCampaign, "s298", 3)
	b.Points = []BenchPoint{{Workers: 4, NsPerOp: 100}}

	m := a.Metrics()
	if m["wall_seconds"] != 2 || m["phase_seconds/search"] != 1.2 {
		t.Errorf("Metrics: %v", m)
	}

	rows := Diff(a, b)
	byName := map[string]DiffRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	w := byName["wall_seconds"]
	if !w.PresentA || !w.PresentB || w.Delta() != 1 || w.Ratio() != 1.5 {
		t.Errorf("wall_seconds row: %+v", w)
	}
	p := byName["ns_per_op/workers=4"]
	if p.PresentA || !p.PresentB {
		t.Errorf("one-sided metric row: %+v", p)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Name >= rows[i].Name {
			t.Errorf("diff rows unsorted at %d: %s >= %s", i, rows[i-1].Name, rows[i].Name)
		}
	}
}

// TestMetricsModePoints pins the mode-aware bench-point metric names:
// points carrying a fsim mode get mode-qualified ns_per_op keys, legacy
// records (empty Mode — every ledger line written before modes existed)
// keep their original names so history stays diffable, and the
// single-thread pattern-parallel speedups (TS0 and its limited-scan
// variant) surface as their own metrics only when the sweep measured
// them.
func TestMetricsModePoints(t *testing.T) {
	r := sampleRecord(KindBenchFsim, "s35932", 1)
	r.PatternSpeedup = 4.9
	r.PatternSpeedupLimscan = 3.1
	r.Points = []BenchPoint{
		{Workers: 1, NsPerOp: 500},
		{Mode: "fault-parallel", Workers: 1, NsPerOp: 490},
		{Mode: "pattern-parallel", Workers: 1, NsPerOp: 100},
	}
	m := r.Metrics()
	for key, want := range map[string]float64{
		"ns_per_op/workers=1":                       500,
		"ns_per_op/mode=fault-parallel/workers=1":   490,
		"ns_per_op/mode=pattern-parallel/workers=1": 100,
		"pattern_speedup_w1":                        4.9,
		"pattern_speedup_limscan_w1":                3.1,
	} {
		if m[key] != want {
			t.Errorf("Metrics[%q] = %v, want %v", key, m[key], want)
		}
	}
	r.PatternSpeedup, r.PatternSpeedupLimscan = 0, 0
	for _, key := range []string{"pattern_speedup_w1", "pattern_speedup_limscan_w1"} {
		if _, ok := r.Metrics()[key]; ok {
			t.Errorf("%s emitted for a sweep that did not measure it", key)
		}
	}
}

func TestHashParams(t *testing.T) {
	type params struct{ A, B int }
	h1 := HashParams(params{1, 2})
	h2 := HashParams(params{1, 2})
	h3 := HashParams(params{1, 3})
	if h1 == "" || h1 != h2 {
		t.Errorf("hash not deterministic: %q vs %q", h1, h2)
	}
	if h1 == h3 {
		t.Error("different params, same hash")
	}
}

// TestCheck is the regression/no-regression table for the perf gate.
func TestCheck(t *testing.T) {
	base := &Baseline{
		Schema: BaselineSchema,
		Metrics: map[string]Tolerance{
			"wall_seconds":    {Value: 2, RelTol: 0.5},                           // limit 3
			"coverage":        {Value: 0.95, AbsTol: 0.02, HigherIsBetter: true}, // limit 0.93
			"peak_heap_bytes": {Value: 1 << 20, RelTol: 1},                       // limit 2MiB
		},
	}
	cases := []struct {
		name   string
		mutate func(*Record)
		want   []string // violated metric names, sorted
	}{
		{"all within", func(r *Record) {}, nil},
		{"at the limit passes", func(r *Record) { r.WallSeconds = 3 }, nil},
		{"slower than tolerance", func(r *Record) { r.WallSeconds = 3.01 }, []string{"wall_seconds"}},
		{"coverage dropped", func(r *Record) { r.Coverage = 0.9; r.Detected = 90 }, []string{"coverage"}},
		{"higher coverage is fine", func(r *Record) { r.Coverage = 1; r.Detected = 100 }, nil},
		{"heap blew up", func(r *Record) { r.PeakHeapBytes = 3 << 20 }, []string{"peak_heap_bytes"}},
		{"metric vanished", func(r *Record) { r.PeakHeapBytes = 0 }, []string{"peak_heap_bytes"}},
		{"multiple at once", func(r *Record) { r.WallSeconds = 10; r.Coverage = 0.5 },
			[]string{"coverage", "wall_seconds"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := sampleRecord(KindCampaign, "s298", 2)
			tc.mutate(r)
			vs := base.Check(r)
			var got []string
			for _, v := range vs {
				got = append(got, v.Name)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("violations = %v, want %v", vs, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("violations = %v, want %v", vs, tc.want)
				}
			}
		})
	}
}

func TestLoadBaselineErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := LoadBaseline(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing baseline must error")
	}
	if _, err := LoadBaseline(write("bad.json", "{")); err == nil {
		t.Error("malformed baseline must error")
	}
	if _, err := LoadBaseline(write("schema.json", `{"schema":99,"metrics":{"x":{"value":1}}}`)); err == nil {
		t.Error("foreign schema must error")
	}
	if _, err := LoadBaseline(write("empty.json", `{"schema":1,"metrics":{}}`)); err == nil {
		t.Error("empty metrics must error (a gate that checks nothing)")
	}
	good := write("good.json", `{"schema":1,"circuit":"s298","metrics":{"wall_seconds":{"value":2,"rel_tol":0.5}}}`)
	b, err := LoadBaseline(good)
	if err != nil {
		t.Fatalf("good baseline: %v", err)
	}
	if b.Circuit != "s298" || b.Metrics["wall_seconds"].Value != 2 {
		t.Errorf("baseline fields: %+v", b)
	}
}

func TestToleranceLimit(t *testing.T) {
	lower := Tolerance{Value: 10, RelTol: 0.1, AbsTol: 1, HigherIsBetter: true}
	if got := lower.Limit(); got != 8 {
		t.Errorf("higher-is-better limit = %g, want 8", got)
	}
	upper := Tolerance{Value: 10, RelTol: 0.1, AbsTol: 1}
	if got := upper.Limit(); got != 12 {
		t.Errorf("lower-is-better limit = %g, want 12", got)
	}
	if upper.Violates(12) || !upper.Violates(12.5) {
		t.Error("upper edge wrong")
	}
	if lower.Violates(8) || !lower.Violates(7.5) {
		t.Error("lower edge wrong")
	}
}

// TestServiceRecordRoundTrip: the service-job fields (job id, cache-hit
// and recovered flags) survive the append/read cycle, and a cache-hit
// record stays distinguishable from a real run (the servesmoke gate
// greps history for exactly this distinction).
func TestServiceRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	run := sampleRecord(KindService, "s298", 1.2)
	run.JobID = "c000001"
	run.Stamp()
	hit := sampleRecord(KindService, "s298", 0.001)
	hit.JobID = "c000002"
	hit.CacheHit = true
	hit.Stamp()
	rec := sampleRecord(KindService, "s298", 0.4)
	rec.JobID = "c000003"
	rec.Recovered = true
	rec.Stamp()
	for _, r := range []*Record{run, hit, rec} {
		if err := Append(path, r, nil); err != nil {
			t.Fatal(err)
		}
	}
	recs, skipped, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 || len(recs) != 3 {
		t.Fatalf("got %d records (%d skipped), want 3 clean", len(recs), len(skipped))
	}
	if recs[0].JobID != "c000001" || recs[0].CacheHit || recs[0].Recovered {
		t.Errorf("run record mangled: %+v", recs[0])
	}
	if !recs[1].CacheHit || recs[1].JobID != "c000002" {
		t.Errorf("cache-hit record mangled: %+v", recs[1])
	}
	if !recs[2].Recovered {
		t.Errorf("recovered record mangled: %+v", recs[2])
	}
	if got := Filter(recs, KindService, "s298"); len(got) != 3 {
		t.Errorf("Filter(KindService) = %d records, want 3", len(got))
	}
}

func TestStampPreservesTime(t *testing.T) {
	fixed := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	r := Record{Time: fixed}
	r.Stamp()
	if !r.Time.Equal(fixed) {
		t.Errorf("Stamp overwrote explicit time: %v", r.Time)
	}
}
