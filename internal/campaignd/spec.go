// Package campaignd is the supervised multi-process campaign runner: it
// splits one campaign's trials into round-robin shards (nvct.Shard), executes
// each shard in a worker subprocess (a re-exec of the running binary in
// worker mode, so one reference prefix run per shard drives the snapshot-tree
// engine), and merges the workers' shard files back into a report that is
// byte-identical to the single-process engine's.
//
// The supervisor is the robustness layer the paper's premise demands of its
// own tooling: workers are monitored through heartbeats, and a worker that
// dies, hangs or corrupts its output is killed and requeued under capped
// exponential backoff with a bounded per-shard retry budget. Retries cannot
// change results — every trial's state is seed-derived before any trial runs —
// so supervision is free to be aggressive. When a shard's budget is exhausted
// the campaign degrades gracefully: the merged report of every delivered
// trial is still written, with per-shard status recording exactly what was
// lost and why.
//
// Every run writes an evidence-first artifact directory (the campaign spec,
// full command line, merged JSON report, per-shard status, and for failing
// trials a repro command plus the durable dump recovery read), and failures
// are fingerprinted and deduplicated against a persistent known-failure store
// so repeated sweeps report "N new / M known".
package campaignd

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"easycrash/internal/apps"
	"easycrash/internal/cli"
	"easycrash/internal/nvct"
)

// Spec is the complete, serializable description of one campaign: everything
// a worker needs to rebuild the tester and run its shard. The supervisor
// writes it into the run directory once; workers load it from there, so the
// supervisor's and every worker's view of the campaign cannot drift.
type Spec struct {
	// Kernel is the registered kernel name (apps.New).
	Kernel string `json:"kernel"`
	// Profile is the problem-size profile ("test" or "bench"; empty = test).
	Profile string `json:"profile,omitempty"`
	// Cache is the cache geometry ("test" or "paper"; empty = test).
	Cache string `json:"cache,omitempty"`
	// Policy is the persistence policy under test (nil = iterator-only).
	Policy *nvct.Policy `json:"policy,omitempty"`
	// Opts are the campaign options. Opts.Parallel applies within each
	// worker; the supervisor's shard concurrency is separate.
	Opts nvct.CampaignOpts `json:"opts"`
}

// RegisterSpecFlags registers on fs the flags that describe the campaign
// itself (as opposed to its supervision or reporting) and returns the function
// that, once the flag set is parsed, validates them into a Spec. cmd/nvct and
// cmd/campaignrunner share this one block — defaultParallel is the only value
// they differ on — so the command ReproArgs renders parses back into the spec
// that produced it.
func RegisterSpecFlags(fs *flag.FlagSet, defaultParallel int) func() (*Spec, error) {
	var (
		kernel   = fs.String("kernel", "mg", "kernel to test (nvct -list names them)")
		tests    = fs.Int("tests", 200, "crash tests in the campaign (> 0)")
		seed     = fs.Int64("seed", 1, "campaign seed")
		persist  = fs.String("persist", "", "comma-separated data objects to persist (empty: none)")
		regions  = fs.String("regions", "", "comma-separated region ids to flush at (empty with -persist: every iteration end)")
		everyIt  = fs.Bool("every-iteration", false, "also flush at iteration ends")
		freq     = fs.Int64("frequency", 1, "persist every x iterations (>= 1)")
		verified = fs.Bool("verified", false, "run the copy-based verified campaign variant")
		duringP  = fs.Bool("during-persistence", false, "make persistence flushes crash-eligible")
		parallel = fs.Int("parallel", defaultParallel, "concurrent crash tests per process (0: GOMAXPROCS, 1: serial)")
		profile  = fs.String("profile", "test", "problem size: test | bench")
		cache    = fs.String("cache", "test", "cache geometry: test | paper")
	)
	faultFlags := cli.RegisterFaultFlags(fs, true)
	nestedFlags := cli.RegisterNestedFlags(fs)
	return func() (*Spec, error) {
		if *tests <= 0 {
			return nil, fmt.Errorf("-tests must be positive, got %d", *tests)
		}
		if *freq < 1 {
			return nil, fmt.Errorf("-frequency must be >= 1, got %d", *freq)
		}
		if *parallel < 0 {
			return nil, fmt.Errorf("-parallel must be >= 0, got %d", *parallel)
		}
		faults, err := faultFlags.Config()
		if err != nil {
			return nil, err
		}
		if err := nestedFlags.Validate(); err != nil {
			return nil, err
		}
		policy, err := cli.BuildPolicy(*persist, *regions, *everyIt, *freq)
		if err != nil {
			return nil, err
		}
		return &Spec{
			Kernel:  *kernel,
			Profile: *profile,
			Cache:   *cache,
			Policy:  policy,
			Opts: nvct.CampaignOpts{
				Tests:                  *tests,
				Seed:                   *seed,
				Verified:               *verified,
				Parallel:               *parallel,
				CrashDuringPersistence: *duringP,
				Faults:                 faults,
				ScrubOnRestart:         faultFlags.Scrub,
				TestTimeout:            faultFlags.Timeout,
				RecrashDepth:           nestedFlags.Depth,
				RetryBudget:            nestedFlags.Budget,
				TrialDeadline:          nestedFlags.Deadline,
			},
		}, nil
	}
}

// Validate checks the spec before it is written for workers.
func (s *Spec) Validate() error {
	if s.Kernel == "" {
		return fmt.Errorf("campaignd: spec without kernel")
	}
	if s.Opts.Tests <= 0 {
		return fmt.Errorf("campaignd: spec with %d tests, want > 0", s.Opts.Tests)
	}
	if _, err := cli.ParseProfile(s.Profile); err != nil {
		return err
	}
	if _, err := cli.ParseCache(s.Cache); err != nil {
		return err
	}
	return s.Opts.Faults.Validate()
}

// NewTester builds the campaign's tester (golden run included) from the spec.
func (s *Spec) NewTester() (*nvct.Tester, error) {
	prof, err := cli.ParseProfile(s.Profile)
	if err != nil {
		return nil, err
	}
	factory, err := apps.New(s.Kernel, prof)
	if err != nil {
		return nil, err
	}
	geom, err := cli.ParseCache(s.Cache)
	if err != nil {
		return nil, err
	}
	return nvct.NewTester(factory, nvct.Config{Cache: geom})
}

// WriteFile writes the spec as stable JSON.
func (s *Spec) WriteFile(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadSpec reads and validates a spec file.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("campaignd: malformed spec %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ReproArgs renders the nvct command-line flags that re-run one trial of this
// campaign in isolation — the repro command archived next to every failing
// trial's evidence.
func (s *Spec) ReproArgs(trial int) []string {
	args := []string{"-kernel", s.Kernel}
	if s.Profile != "" && s.Profile != "test" {
		args = append(args, "-profile", s.Profile)
	}
	if s.Cache != "" && s.Cache != "test" {
		args = append(args, "-cache", s.Cache)
	}
	args = append(args, "-tests", strconv.Itoa(s.Opts.Tests), "-seed", strconv.FormatInt(s.Opts.Seed, 10))
	if p := s.Policy; p != nil {
		args = append(args, "-persist", strings.Join(p.Objects, ","))
		if len(p.AtRegionEnds) > 0 {
			ids := make([]string, len(p.AtRegionEnds))
			for i, r := range p.AtRegionEnds {
				ids[i] = strconv.Itoa(r)
			}
			args = append(args, "-regions", strings.Join(ids, ","))
			if p.AtIterationEnd {
				args = append(args, "-every-iteration")
			}
		}
		if p.Frequency > 1 {
			args = append(args, "-frequency", strconv.FormatInt(p.Frequency, 10))
		}
	}
	if s.Opts.Verified {
		args = append(args, "-verified")
	}
	if s.Opts.CrashDuringPersistence {
		args = append(args, "-during-persistence")
	}
	f := s.Opts.Faults
	if f.RBER > 0 {
		args = append(args, "-rber", strconv.FormatFloat(f.RBER, 'g', -1, 64))
	}
	if f.TornWrites {
		args = append(args, "-torn")
	}
	if f.ECC.Enabled() {
		args = append(args, "-ecc", strconv.Itoa(f.ECC.CorrectBits), "-ecc-detect", strconv.Itoa(f.ECC.DetectBits))
	}
	if s.Opts.ScrubOnRestart {
		args = append(args, "-scrub")
	}
	if s.Opts.RecrashDepth > 0 {
		args = append(args, "-recrash-depth", strconv.Itoa(s.Opts.RecrashDepth))
		if s.Opts.RetryBudget > 0 {
			args = append(args, "-retry-budget", strconv.Itoa(s.Opts.RetryBudget))
		}
	}
	return append(args, "-repro", strconv.Itoa(trial))
}
