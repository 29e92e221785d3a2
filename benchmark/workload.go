package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"easycrash/internal/apps"
	"easycrash/internal/cachesim"
	"easycrash/internal/faultmodel"
	"easycrash/internal/nvct"

	// Registers the "pmemkv" and "pmemkv-bug" kernels.
	_ "easycrash/internal/pmemkv"
)

// campaignDef is one campaign of a workload: a kernel, the objects its
// iteration-end policy persists (nil = the nil baseline policy) and the
// campaign options. Tests, Seed and Parallel are filled in at set-up.
type campaignDef struct {
	kernel  string
	persist []string
	opts    nvct.CampaignOpts
}

// workloadDef is one named workload: a closed loop running its campaigns one
// at a time. All campaigns run apps.ProfileTest on cachesim.TestConfig with
// Parallel pinned to 1: on a two-core box Parallel 2 swings by a quarter,
// Parallel 1 repeats within a percent.
type workloadDef struct {
	name        string
	campaigns   []campaignDef
	trials      int // per campaign
	smokeTrials int
	// sharded runs the campaign through the built cmd/campaignrunner binary
	// with this many worker shards instead of in-process.
	sharded int
	// workflow also times the four-step core workflow on this kernel in the
	// traced pass.
	workflow bool
}

// workloads are the five named workloads; BENCHMARK.json and README.md record
// why each exists.
var workloads = []workloadDef{
	{name: "lu_recovery", trials: 2000, smokeTrials: 40,
		campaigns: []campaignDef{{kernel: "lu"}}},
	{name: "lulesh_dense", trials: 2000, smokeTrials: 40,
		campaigns: []campaignDef{{kernel: "lulesh"}}},
	{name: "mg_faults_nested", trials: 500, smokeTrials: 24, workflow: true,
		campaigns: []campaignDef{{kernel: "mg", persist: []string{"r", "u"}, opts: nvct.CampaignOpts{
			Faults:         faultmodel.Config{RBER: 2e-6, TornWrites: true, ECC: faultmodel.SECDED()},
			ScrubOnRestart: true,
			RecrashDepth:   2,
		}}}},
	{name: "kv_oracle", trials: 2000, smokeTrials: 40,
		campaigns: []campaignDef{
			{kernel: "pmemkv", opts: nvct.CampaignOpts{CrashDuringPersistence: true}},
			{kernel: "pmemkv-bug", opts: nvct.CampaignOpts{CrashDuringPersistence: true}},
		}},
	{name: "lu_sharded", trials: 2000, smokeTrials: 40, sharded: 2,
		campaigns: []campaignDef{{kernel: "lu"}}},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// campaign is a campaignDef made runnable.
type campaign struct {
	def    campaignDef
	tester *nvct.Tester
	policy *nvct.Policy
	opts   nvct.CampaignOpts
}

func (c *campaign) run() (*nvct.Report, error) {
	return c.tester.RunCampaignContext(context.Background(), c.policy, c.opts)
}

// state is a workload after set-up, ready for timed reps.
type state struct {
	w      *workloadDef
	seed   int64 // the -seed argument
	smoke  bool
	camps  []*campaign
	trials int    // per rep, over all campaigns
	tmp    string // sharded: holds the worker binary and the run dirs
	bin    string
	warm   []string // digests of the warm-up campaign's reports (seed 0)
}

// seedStride separates the campaign seeds of one run, so that runs at
// neighbouring -seed values share no campaign.
const seedStride = 1_000_003

// useSeed points the campaigns at the run's k-th campaign seed. A trial's cost
// depends on where its crash point falls, so one campaign's wall time depends
// on its seed by several percent; a run therefore times campaignSeeds
// campaigns, all derived from -seed. Seed 0 is -seed itself.
func (s *state) useSeed(k int) {
	for _, c := range s.camps {
		c.opts.Seed = s.seed + int64(k)*seedStride
	}
}

func (s *state) close() {
	if s.tmp != "" {
		os.RemoveAll(s.tmp)
	}
}

// setup is everything before the first timed rep: the golden run of every
// campaign (nvct.NewTester), the policy, one warm-up campaign, and for the
// sharded workload the build of cmd/campaignrunner into a temp dir.
func setup(w *workloadDef, root string, seed int64, smoke bool) (*state, error) {
	s := &state{w: w, seed: seed, smoke: smoke}
	tests := w.trials
	if smoke {
		tests = w.smokeTrials
	}
	for _, def := range w.campaigns {
		factory, err := apps.New(def.kernel, apps.ProfileTest)
		if err != nil {
			return nil, err
		}
		tester, err := nvct.NewTester(factory, nvct.Config{Cache: cachesim.TestConfig()})
		if err != nil {
			return nil, err
		}
		c := &campaign{def: def, tester: tester, opts: def.opts}
		if def.persist != nil {
			c.policy = nvct.IterationPolicy(def.persist)
		}
		c.opts.Tests, c.opts.Seed, c.opts.Parallel = tests, seed, 1
		s.camps = append(s.camps, c)
		s.trials += tests
	}
	if w.sharded > 0 {
		tmp, err := os.MkdirTemp("", "easycrash-bench-")
		if err != nil {
			return nil, err
		}
		s.tmp, s.bin = tmp, filepath.Join(tmp, "campaignrunner")
		build := exec.Command("go", "build", "-o", s.bin, "./cmd/campaignrunner")
		build.Dir = root
		if out, err := build.CombinedOutput(); err != nil {
			s.close()
			return nil, fmt.Errorf("go build ./cmd/campaignrunner: %v\n%s", err, out)
		}
	}
	warm, err := s.rep()
	if err != nil {
		s.close()
		return nil, err
	}
	for _, b := range warm.jsons {
		s.warm = append(s.warm, digest(b))
	}
	return s, nil
}

// repResult is one rep: the campaign wall time, the heap allocations the
// benchmark process made during it, and each campaign's report.
type repResult struct {
	wall       float64   // seconds, all campaigns
	campWall   []float64 // in-process: seconds per campaign
	mallocs    uint64
	allocBytes uint64
	jsons      [][]byte       // Report.JSON() per campaign (sharded: report.json)
	reports    []*nvct.Report // in-process only
	failed     int            // ERR or undelivered trials
	status     string         // sharded: non-empty when status.json shows a failed shard or a retry
	dirKB      float64        // sharded: size of the run dir
}

// rep runs the workload's campaigns once. Only the campaigns are inside the
// timed window; serialising and reading back reports is not.
func (s *state) rep() (*repResult, error) {
	if s.w.sharded > 0 {
		return s.shardedRep()
	}
	return s.inProcessRep()
}

func (s *state) inProcessRep() (*repResult, error) {
	r := &repResult{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, c := range s.camps {
		c0 := time.Now()
		rep, err := c.run()
		if err != nil {
			return nil, fmt.Errorf("%s campaign: %w", c.def.kernel, err)
		}
		r.campWall = append(r.campWall, time.Since(c0).Seconds())
		r.reports = append(r.reports, rep)
	}
	r.wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	for _, rep := range r.reports {
		b, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		r.jsons = append(r.jsons, b)
		r.failed += rep.Counts[nvct.SErr] + rep.Requested - len(rep.Tests)
	}
	return r, nil
}

// shardedRep runs the built campaignrunner on the workload's one campaign.
// mallocs counts the client side only: the workers are other processes.
func (s *state) shardedRep() (*repResult, error) {
	c := s.camps[0]
	dir, err := os.MkdirTemp(s.tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	run := filepath.Join(dir, "run")
	cmd := exec.Command(s.bin, "-kernel", c.def.kernel, "-tests", strconv.Itoa(c.opts.Tests),
		"-seed", strconv.FormatInt(c.opts.Seed, 10), "-shards", strconv.Itoa(s.w.sharded), "-run-dir", run)
	r := &repResult{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	out, err := cmd.CombinedOutput()
	r.wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	if err != nil {
		return nil, fmt.Errorf("campaignrunner: %v\n%s", err, out)
	}

	report, err := os.ReadFile(filepath.Join(run, "report.json"))
	if err != nil {
		return nil, err
	}
	r.jsons = [][]byte{report}
	var tally struct {
		Requested int            `json:"requested"`
		Tests     int            `json:"tests"`
		Counts    map[string]int `json:"counts"`
	}
	if err := json.Unmarshal(report, &tally); err != nil {
		return nil, fmt.Errorf("report.json: %w", err)
	}
	r.failed = tally.Counts[nvct.SErr.String()] + tally.Requested - tally.Tests

	statusBytes, err := os.ReadFile(filepath.Join(run, "status.json"))
	if err != nil {
		return nil, err
	}
	var status struct {
		Complete bool `json:"complete"`
		Shards   []struct {
			Shard    int    `json:"shard"`
			State    string `json:"state"`
			Attempts int    `json:"attempts"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(statusBytes, &status); err != nil {
		return nil, fmt.Errorf("status.json: %w", err)
	}
	if !status.Complete {
		r.status = "run incomplete"
	}
	for _, sh := range status.Shards {
		if sh.State != "ok" || sh.Attempts != 1 {
			r.status = fmt.Sprintf("shard %d: state %s after %d attempts", sh.Shard, sh.State, sh.Attempts)
		}
	}
	r.dirKB = dirKB(run)
	return r, nil
}

func dirKB(dir string) float64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return float64(n) / 1024
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// pin is what golden.json holds per campaign at seed 1: the report digest,
// the simulated cache statistics of the reference run under the campaign's
// policy, and the VIOL count (non-zero only for pmemkv-bug).
type pin struct {
	Kernel       string         `json:"kernel"`
	ReportSHA256 string         `json:"report_sha256"`
	Viol         int            `json:"viol"`
	CacheStats   cachesim.Stats `json:"cache_stats"`
}

// goldenFile maps scale ("full" or "smoke") and workload to its pins.
type goldenFile map[string]map[string][]pin

func loadGolden(path string) (goldenFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g := goldenFile{}
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func (g goldenFile) save(path string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// reproTrials is how many seed-chosen trials are re-run live per campaign.
const reproTrials = 32

// checked is the outcome of the correctness checks, with the by-products the
// traced pass turns into metrics.
type checked struct {
	failures  []string
	pins      []pin
	refs      []nvct.Golden // reference run per campaign
	inProcess *repResult    // the in-process rep the trials were compared to
	refRunS   float64       // summed ProfileRun wall
	liveS     []float64     // wall of each re-run trial
}

// check runs the correctness checks on rep0, the first rep's result:
//
//	(b) at seed 1 the report digests, reference-run CacheStats and VIOL counts
//	    equal the pins in golden.json;
//	(c) seed-chosen trials re-run through Tester.ReproTrial (the live engine)
//	    are DeepEqual to the campaign's result at that index;
//	(d) pmemkv audits clean and pmemkv-bug is caught;
//	(e) the sharded report.json is byte-equal to the in-process report and
//	    status.json shows no failed shard and no retry.
//
// Check (a), every rep byte-identical to the first, is the caller's, since it
// spans reps. want is nil when the pins do not apply (another seed, or
// -update-golden). With a tracer every call into nvct is a span.
func (s *state) check(tr *tracer, rep0 *repResult, want []pin) (*checked, error) {
	ck := &checked{inProcess: rep0}
	fail := func(format string, a ...any) {
		ck.failures = append(ck.failures, fmt.Sprintf(format, a...))
	}
	if s.w.sharded > 0 {
		if rep0.status != "" {
			fail("(e) status.json: %s", rep0.status)
		}
		var err error
		tr.do("nvct.RunCampaignContext", func() int64 {
			ck.inProcess, err = s.inProcessRep()
			return 0
		})
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(ck.inProcess.jsons[0], rep0.jsons[0]) {
			fail("(e) sharded report.json differs from the in-process report")
		}
	}

	rng := rand.New(rand.NewSource(s.seed))
	for i, c := range s.camps {
		var ref nvct.Golden
		var err error
		ck.refRunS += tr.do("nvct.ProfileRun", func() int64 {
			ref, err = c.tester.ProfileRun(c.policy)
			return 0
		})
		if err != nil {
			return nil, err
		}
		ck.refs = append(ck.refs, ref)
		rep := ck.inProcess.reports[i]
		viol := rep.Counts[nvct.SViol]
		ck.pins = append(ck.pins, pin{Kernel: c.def.kernel, ReportSHA256: digest(rep0.jsons[i]), Viol: viol, CacheStats: ref.CacheStats})

		switch c.def.kernel {
		case "pmemkv":
			if viol != 0 {
				fail("(d) pmemkv reports %d VIOL trials, want 0", viol)
			}
		case "pmemkv-bug":
			if viol == 0 {
				fail("(d) pmemkv-bug was not caught: 0 VIOL trials")
			}
		}

		n := reproTrials
		if s.smoke {
			n = 4
		}
		for k := 0; k < n && len(rep.Tests) > 0; k++ {
			idx := rng.Intn(len(rep.Tests))
			var got nvct.TestResult
			ck.liveS = append(ck.liveS, tr.do("nvct.ReproTrial", func() int64 {
				got, err = c.tester.ReproTrial(context.Background(), c.policy, c.opts, idx)
				return 0
			}))
			if err != nil {
				return nil, err
			}
			if !reflect.DeepEqual(got, rep.Tests[idx]) {
				fail("(c) %s trial %d: live re-run differs from the campaign's result", c.def.kernel, idx)
			}
		}
	}

	if want != nil {
		if len(want) != len(ck.pins) {
			fail("(b) golden.json pins %d campaigns, workload has %d", len(want), len(ck.pins))
		} else {
			for i, p := range ck.pins {
				if !reflect.DeepEqual(p, want[i]) {
					fail("(b) %s differs from golden.json: report %s viol %d, pinned %s viol %d (cache stats equal: %v)",
						p.Kernel, p.ReportSHA256, p.Viol, want[i].ReportSHA256, want[i].Viol,
						reflect.DeepEqual(p.CacheStats, want[i].CacheStats))
				}
			}
		}
	}
	return ck, nil
}
