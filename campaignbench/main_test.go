package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny returns a copy of the named workload on a small circuit, with
// no pinned digests unless the test sets them.
func tiny(t *testing.T, name, circuit string) *workload {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	cp := *w
	cp.circuit = circuit
	cp.pinned = nil
	return &cp
}

// lastLine decodes the JSON result line a run printed last.
func lastLine(t *testing.T, out string) (r struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return r
}

// benchmarkJSON reads the metric catalogue the benchmark declares.
func benchmarkJSON(t *testing.T) (e2e, layer map[string]string, names []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, x := range b.EndToEnd {
		e2e[x.Name] = x.Unit
	}
	for _, x := range b.PerLayer {
		layer[x.Name] = x.Unit
	}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	return e2e, layer, names
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	e2e, layer, names := benchmarkJSON(t)
	if got, want := strings.Join(names, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %q, program has %q", got, want)
	}
	check := func(kind string, want map[string]string, have []struct{ name, unit string }) {
		if len(want) != len(have) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(want), len(have))
		}
		for _, m := range have {
			if want[m.name] != m.unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, program %q", kind, m.name, want[m.name], m.unit)
			}
		}
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// TestTinyRuns runs every workload on s298, timed and traced, and
// checks that each prints every metric with its unit and that the
// replay reaches the untraced digest.
func TestTinyRuns(t *testing.T) {
	e2e, layer, _ := benchmarkJSON(t)
	tmp := t.TempDir()
	for _, name := range strings.Split(workloadNames(), ", ") {
		w := tiny(t, name, "s298")
		for _, traced := range []bool{false, true} {
			var res *result
			var err error
			var log bytes.Buffer
			if traced {
				res, err = tracedRun(w, 1, tmp, tmp+"/trace.json", &log)
			} else {
				res, err = timedRun(w, 1, time.Millisecond, tmp, &log)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if err := res.write(&log); err != nil {
				t.Fatal(err)
			}
			r := lastLine(t, log.String())
			want := e2e
			if traced {
				want = layer
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d of %d\n%s", name, traced, r.Correct, r.Failed, r.Attempted, log.String())
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(r.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := r.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, m, got, unit)
				}
				if !strings.Contains(log.String(), "metric "+m+" ") {
					t.Errorf("%s traced=%v: no printed line for %s", name, traced, m)
				}
			}
		}
	}
}

// TestCorruptDigestFails pins a wrong digest: every operation must count
// as failed, and the run must still print its result.
func TestCorruptDigestFails(t *testing.T) {
	tmp := t.TempDir()
	for _, name := range strings.Split(workloadNames(), ", ") {
		w := tiny(t, name, "s298")
		w.pinned = map[uint64]string{1: "corrupted"}
		var log bytes.Buffer
		res, err := timedRun(w, 1, time.Millisecond, tmp, &log)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != res.attempted || res.attempted < 1 {
			t.Errorf("%s: %d of %d operations failed, want all", name, res.failed, res.attempted)
		}
		if err := res.write(&log); err != nil {
			t.Fatal(err)
		}
		if r := lastLine(t, log.String()); r.Correct {
			t.Errorf("%s: a corrupted digest still reads correct", name)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-workload", "nope"},
		{"-workload", "grade-s5378", "-trace", "2"},
		{"-workload", "grade-s5378", "-seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 100}, {10, 100}, {11, 9}, {20, 50}, {76, 86}, {1000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
