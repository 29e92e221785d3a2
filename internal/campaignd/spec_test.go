package campaignd_test

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"easycrash/internal/cachesim"
	"easycrash/internal/campaignd"
	"easycrash/internal/faultmodel"
	"easycrash/internal/nvct"
)

// TestReproArgsInvertSpecFlags ties Spec.ReproArgs to the flag block it is the
// hand-written inverse of: the archived `nvct ... -repro N` command, parsed
// back through RegisterSpecFlags, must rebuild the spec on every field that
// decides a trial's record. Parallel and the two wall-clock deadlines are
// deliberately not part of a repro command (they cannot change a record that
// completes), so the originals leave them zero.
func TestReproArgsInvertSpecFlags(t *testing.T) {
	persist := func(at []int, iterEnd bool, freq int64) *nvct.Policy {
		return &nvct.Policy{Objects: []string{"u", "r"}, AtRegionEnds: at, AtIterationEnd: iterEnd, Frequency: freq, Op: cachesim.CLFLUSHOPT}
	}
	cases := []struct {
		name string
		spec campaignd.Spec
	}{
		{"baseline", campaignd.Spec{Kernel: "mg", Opts: nvct.CampaignOpts{Tests: 40, Seed: 9}}},
		{"iteration-end policy on bench/paper, verified", campaignd.Spec{Kernel: "lu", Profile: "bench", Cache: "paper",
			Policy: persist(nil, true, 1), Opts: nvct.CampaignOpts{Tests: 7, Seed: -3, Verified: true}}},
		{"region policy", campaignd.Spec{Kernel: "mg", Policy: persist([]int{2, 3}, false, 1),
			Opts: nvct.CampaignOpts{Tests: 40, Seed: 9}}},
		{"region policy with -every-iteration", campaignd.Spec{Kernel: "mg", Policy: persist([]int{1}, true, 1),
			Opts: nvct.CampaignOpts{Tests: 40, Seed: 9}}},
		{"frequency 4", campaignd.Spec{Kernel: "mg", Policy: persist(nil, true, 4),
			Opts: nvct.CampaignOpts{Tests: 40, Seed: 9}}},
		{"faults + SECDED + scrub", campaignd.Spec{Kernel: "mg", Opts: nvct.CampaignOpts{Tests: 40, Seed: 9,
			Faults: faultmodel.Config{RBER: 2e-6, TornWrites: true, ECC: faultmodel.SECDED()}, ScrubOnRestart: true}}},
		{"detect-only ECC (-ecc 0 -ecc-detect 2)", campaignd.Spec{Kernel: "mg", Opts: nvct.CampaignOpts{Tests: 40, Seed: 9,
			Faults: faultmodel.Config{RBER: 1e-5, ECC: faultmodel.ECC{DetectBits: 2}}}}},
		{"ECC without injection", campaignd.Spec{Kernel: "mg", Opts: nvct.CampaignOpts{Tests: 40, Seed: 9,
			Faults: faultmodel.Config{ECC: faultmodel.ECC{CorrectBits: 1, DetectBits: 4}}}}},
		{"nested depth 2 with budget 3", campaignd.Spec{Kernel: "mg", Policy: persist(nil, true, 1),
			Opts: nvct.CampaignOpts{Tests: 40, Seed: 9, RecrashDepth: 2, RetryBudget: 3}}},
		{"pmemkv during-persistence", campaignd.Spec{Kernel: "pmemkv",
			Opts: nvct.CampaignOpts{Tests: 200, Seed: 1, CrashDuringPersistence: true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := tc.spec.ReproArgs(17)
			if n := len(args); n < 2 || args[n-2] != "-repro" || args[n-1] != "17" {
				t.Fatalf("ReproArgs does not end in -repro 17: %q", args)
			}
			fs := flag.NewFlagSet("nvct", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			build := campaignd.RegisterSpecFlags(fs, 0)
			if err := fs.Parse(args[:len(args)-2]); err != nil {
				t.Fatalf("parsing %q: %v", args, err)
			}
			got, err := build()
			if err != nil {
				t.Fatalf("building the spec from %q: %v", args, err)
			}
			// "" and "test" name the same profile and geometry.
			want := tc.spec
			for _, s := range []*string{&want.Profile, &want.Cache} {
				if *s == "" {
					*s = "test"
				}
			}
			if !reflect.DeepEqual(*got, want) {
				t.Errorf("%q\nrebuilds %+v (policy %+v)\n    want %+v (policy %+v)", args, *got, got.Policy, want, want.Policy)
			}
		})
	}
}

// TestSpecFlagChecks pins the flag-level range checks both commands now share.
func TestSpecFlagChecks(t *testing.T) {
	for _, args := range [][]string{{"-tests", "0"}, {"-frequency", "0"}, {"-parallel", "-1"}, {"-retry-budget", "3"}} {
		fs := flag.NewFlagSet("campaignrunner", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		build := campaignd.RegisterSpecFlags(fs, 1)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, err := build(); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
	// No flags at all: the one default the two commands differ on.
	spec, err := campaignd.RegisterSpecFlags(flag.NewFlagSet("campaignrunner", flag.ContinueOnError), 1)()
	if err != nil || spec.Opts.Parallel != 1 {
		t.Errorf("default -parallel: spec %+v, err %v; want Parallel 1", spec, err)
	}
}
