package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"limscan/internal/bmark"
	"limscan/internal/circuit"
	"limscan/internal/core"
	"limscan/internal/fault"
	"limscan/internal/fsim"
)

// workload is one public entry point run on one circuit.
type workload struct {
	name    string
	circuit string
	// pinned maps a seed to the digest the body must reproduce. A seed
	// without an entry is checked for agreement between the run's own
	// operations instead, and its digest is printed so two commits can
	// be compared on it.
	pinned map[uint64]string
	// seeds, when set, are the campaign seeds the benchmark seed picks
	// from (see inputSeed); nil passes the benchmark seed through.
	seeds []uint64
	// setup builds a fresh fixture: everything a user pays for before
	// the work starts.
	setup func(circuit string, seed uint64, tmp string) (*fixture, error)
	// replay re-runs the body as direct calls into the layers and
	// returns the same digest the body does.
	replay func(t *tracer, circuit string, seed uint64) (string, error)
	// ts0 is the configuration of the workload's first fault-simulation
	// session, which fsim.parallel_speedup times at one worker and at
	// the default worker count.
	ts0 func(c *circuit.Circuit, seed uint64) core.Config
	// checkpoints marks the workload whose body writes checkpoints.
	checkpoints bool
}

// fixture is what one timed body runs on.
type fixture struct {
	body func() (string, error)
	// runner is the campaign runner the body used; nil when the body
	// drives the simulator directly.
	runner *core.Runner
}

// maxCombos is the number of (LA, LB, N) combinations limscan -auto
// tries before giving up.
const maxCombos = 16

// campaignConfig is the single campaign of campaign-s1196: the paper's
// smallest combination with the default D1 order and limits.
func campaignConfig(seed uint64) core.Config {
	return core.Config{LA: 8, LB: 16, N: 64, Seed: seed}
}

// gradeConfig is the graded session of grade-s5378: 64 random tests of
// length 16.
func gradeConfig(seed uint64) core.Config {
	return core.Config{LA: 16, LB: 16, N: 32, Seed: seed}
}

var workloads = []*workload{
	{
		// The limscand job path: ATPG classification dominates, and it
		// is the only workload that writes checkpoints.
		name:    "campaign-s1196",
		circuit: "s1196",
		pinned: map[uint64]string{
			1:  "total=2235 initial=2159 detected=2192 untestable=43 aborted=0 pairs=7 cycles=73831 pairs_sha=f0b55adb056f",
			7:  "total=2235 initial=2160 detected=2192 untestable=43 aborted=0 pairs=5 cycles=50053 pairs_sha=7a1d6121095c",
			8:  "total=2235 initial=2158 detected=2192 untestable=43 aborted=0 pairs=7 cycles=65792 pairs_sha=869b3b903abb",
			11: "total=2235 initial=2164 detected=2192 untestable=43 aborted=0 pairs=7 cycles=62177 pairs_sha=bc08a2b6d1fc",
			12: "total=2235 initial=2164 detected=2192 untestable=43 aborted=0 pairs=6 cycles=68045 pairs_sha=5ff3212010d7",
		},
		seeds:       []uint64{1, 7, 8, 11, 12},
		setup:       setupCampaign,
		replay:      replayCampaign,
		ts0:         func(_ *circuit.Circuit, seed uint64) core.Config { return campaignConfig(seed) },
		checkpoints: true,
	},
	{
		// limscan -auto: five combinations on one runner, so the verdict
		// cache makes classification cheap and the Procedure 2 search
		// (many small fault-simulation sessions) dominates.
		name:    "auto-s641",
		circuit: "s641",
		pinned: map[uint64]string{
			1:  "tried=5 chosen=16/64/64 total=1582 initial=1532 detected=1558 untestable=24 aborted=0 pairs=7 cycles=213751 pairs_sha=24bd74e15e85",
			27: "tried=5 chosen=16/64/64 total=1582 initial=1531 detected=1558 untestable=24 aborted=0 pairs=5 cycles=217747 pairs_sha=96c3d2c29368",
			13: "tried=5 chosen=16/64/64 total=1582 initial=1529 detected=1558 untestable=24 aborted=0 pairs=6 cycles=200808 pairs_sha=eeefcbc4e504",
			18: "tried=5 chosen=16/64/64 total=1582 initial=1531 detected=1558 untestable=24 aborted=0 pairs=6 cycles=190482 pairs_sha=0cbee61b06a2",
		},
		seeds:  []uint64{1, 27, 13, 18},
		setup:  setupAuto,
		replay: replayAuto,
		// The first combination FirstComplete runs.
		ts0: func(c *circuit.Circuit, seed uint64) core.Config {
			cb := core.Combos(c.NumSV())[0]
			return core.Config{LA: cb.LA, LB: cb.LB, N: cb.N, Seed: seed}
		},
	},
	{
		// One wide fault-simulation session over every collapsed fault:
		// the fsim kernel, worker sharding and ordered merge do all the
		// work, with no ATPG and no Procedure 1.
		name:    "grade-s5378",
		circuit: "s5378",
		pinned: map[uint64]string{
			1: "faults=11528 detected=11157 batches=183 cycles=12659 states_sha=6159a4522f03",
		},
		setup:  setupGrade,
		replay: replayGrade,
		ts0:    func(_ *circuit.Circuit, seed uint64) core.Config { return gradeConfig(seed) },
	},
}

// inputSeed maps the benchmark seed to the seed the workload's inputs
// are made from: entry (n-1) mod len of seeds, or n itself. A
// campaign's cost follows its seed (over seeds 1-40, limscan -auto on
// s641 tried 2 to 7 combinations), so the campaign workloads draw from
// seeds whose work matches seed 1's; README.md gives the criteria.
func (w *workload) inputSeed(n uint64) uint64 {
	if w.seeds == nil {
		return n
	}
	k := uint64(len(w.seeds))
	return w.seeds[(n%k+k-1)%k]
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func setupCampaign(circuit string, seed uint64, tmp string) (*fixture, error) {
	c, err := bmark.Load(circuit)
	if err != nil {
		return nil, err
	}
	r := core.NewRunner(c)
	body := func() (string, error) {
		dir, err := os.MkdirTemp(tmp, "checkpoint-")
		if err != nil {
			return "", err
		}
		defer os.RemoveAll(dir)
		res, resumed, err := r.RunJob(context.Background(), campaignConfig(seed),
			&core.CheckpointOptions{Path: filepath.Join(dir, "campaign.ckpt")})
		if err != nil {
			return "", err
		}
		if resumed {
			return "", fmt.Errorf("campaign resumed from a fresh checkpoint directory")
		}
		return campaignDigest(res)
	}
	return &fixture{body: body, runner: r}, nil
}

func setupAuto(circuit string, seed uint64, _ string) (*fixture, error) {
	c, err := bmark.Load(circuit)
	if err != nil {
		return nil, err
	}
	r := core.NewRunner(c)
	body := func() (string, error) {
		out, err := r.FirstComplete(core.CampaignOptions{Base: core.Config{Seed: seed}, MaxCombos: maxCombos})
		if err != nil {
			return "", err
		}
		return autoDigest(out)
	}
	return &fixture{body: body, runner: r}, nil
}

func setupGrade(circuit string, seed uint64, _ string) (*fixture, error) {
	c, err := bmark.Load(circuit)
	if err != nil {
		return nil, err
	}
	sim := fsim.New(c)
	reps, _ := fault.Collapse(c, fault.Universe(c))
	fs := fault.NewSet(reps)
	tests := core.GenerateTS0(c, gradeConfig(seed))
	body := func() (string, error) {
		st, err := sim.Run(tests, fs, fsim.Options{})
		if err != nil {
			return "", err
		}
		return gradeDigest(fs, st)
	}
	return &fixture{body: body}, nil
}

// campaignDigest summarizes a Procedure 2 result after checking that
// its totals agree with its parts.
func campaignDigest(res *core.Result) (string, error) {
	det, cyc := res.InitialDetected, res.InitialCycles
	h := sha256.New()
	for _, p := range res.Pairs {
		det += p.Detected
		cyc += p.Cycles
		fmt.Fprintf(h, "%d/%d/%d/%d;", p.I, p.D1, p.Detected, p.Cycles)
	}
	if det != res.Detected || cyc != res.TotalCycles {
		return "", fmt.Errorf("result totals (%d detected, %d cycles) disagree with TS0 plus pairs (%d, %d)",
			res.Detected, res.TotalCycles, det, cyc)
	}
	if res.Detected+res.Untestable > res.TotalFaults {
		return "", fmt.Errorf("%d detected plus %d untestable exceed %d faults", res.Detected, res.Untestable, res.TotalFaults)
	}
	return fmt.Sprintf("total=%d initial=%d detected=%d untestable=%d aborted=%d pairs=%d cycles=%d pairs_sha=%x",
		res.TotalFaults, res.InitialDetected, res.Detected, res.Untestable, res.Aborted,
		len(res.Pairs), res.TotalCycles, h.Sum(nil)[:6]), nil
}

// autoDigest summarizes a first-complete search by its chosen campaign.
func autoDigest(out *core.CampaignResult) (string, error) {
	if out.Chosen == nil {
		return "", fmt.Errorf("no combination of %d reached complete coverage", out.Tried)
	}
	d, err := campaignDigest(out.Chosen)
	if err != nil {
		return "", err
	}
	cfg := out.Chosen.Config
	return fmt.Sprintf("tried=%d chosen=%d/%d/%d %s", out.Tried, cfg.LA, cfg.LB, cfg.N, d), nil
}

// gradeDigest summarizes a graded session by its detections and the
// final status of every fault.
func gradeDigest(fs *fault.Set, st fsim.RunStats) (string, error) {
	det := fs.Count(fault.Detected)
	if det != st.Detected {
		return "", fmt.Errorf("session reports %d detections, fault set holds %d", st.Detected, det)
	}
	h := sha256.New()
	for _, s := range fs.State {
		h.Write([]byte{byte(s)})
	}
	return fmt.Sprintf("faults=%d detected=%d batches=%d cycles=%d states_sha=%x",
		len(fs.Faults), det, st.Batches, st.Cycles, h.Sum(nil)[:6]), nil
}

// checkDigest reports whether got is right for the seed: equal to the
// pinned digest when there is one, otherwise equal to ref, the digest
// of the run's first operation.
func (w *workload) checkDigest(seed uint64, got, ref string) error {
	want, ok := w.pinned[seed]
	if !ok {
		want = ref
	}
	if got != want {
		return fmt.Errorf("digest %q, want %q", got, want)
	}
	return nil
}
