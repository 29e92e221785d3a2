package easycrash_test

import (
	"errors"
	"fmt"

	"testing"

	"easycrash"
	"easycrash/internal/nvct"
)

func TestFacadeKernels(t *testing.T) {
	names := easycrash.KernelNames()
	if len(names) != 11 {
		t.Fatalf("KernelNames: %d", len(names))
	}
	if _, err := easycrash.NewKernel("mg", easycrash.ProfileTest); err != nil {
		t.Fatal(err)
	}
	if _, err := easycrash.NewKernel("bogus", easycrash.ProfileTest); err == nil {
		t.Fatal("bogus kernel accepted")
	}
}

func TestFacadeCacheConfigs(t *testing.T) {
	if err := easycrash.TestCacheConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := easycrash.PaperCacheConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadePolicies(t *testing.T) {
	p := easycrash.IterationPolicy([]string{"u"})
	if !p.AtIterationEnd || len(p.Objects) != 1 {
		t.Fatalf("IterationPolicy = %+v", p)
	}
	q := easycrash.EveryRegionPolicy([]string{"u"}, 4)
	if len(q.AtRegionEnds) != 4 {
		t.Fatalf("EveryRegionPolicy = %+v", q)
	}
}

func TestFacadeSystemModel(t *testing.T) {
	params := easycrash.SystemParams{MTBF: 12 * 3600, TChk: 3200, R: 0.8, Ts: 0.015, DataBytes: 1e8}
	base, ec, gain, err := easycrash.SystemEfficiency(params)
	if err != nil {
		t.Fatal(err)
	}
	if !(ec > base) || gain <= 0 {
		t.Fatalf("base %v ec %v gain %v", base, ec, gain)
	}
	tau, err := easycrash.Tau(params)
	if err != nil || tau <= 0 || tau >= 1 {
		t.Fatalf("tau %v err %v", tau, err)
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end workflow skipped with -short")
	}
	factory, err := easycrash.NewKernel("lu", easycrash.ProfileTest)
	if err != nil {
		t.Fatal(err)
	}
	tester, err := easycrash.NewTester(factory, easycrash.TesterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := easycrash.RunWithTester(tester, easycrash.Config{Tests: 40, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.AchievedY() <= res.BaselineY {
		t.Fatalf("EasyCrash did not improve LU: %v -> %v", res.BaselineY, res.AchievedY())
	}
}

// TestFacadeNamedErrors pins the re-exported named errors to their engine
// identities: errors.Is must work through the facade, and the strings the
// campaign records in TestResult.Err must round-trip.
func TestFacadeNamedErrors(t *testing.T) {
	cases := []struct {
		name   string
		facade error
		engine error
	}{
		{"empty crash space", easycrash.ErrEmptyCrashSpace, nvct.ErrEmptyCrashSpace},
		{"retry budget exhausted", easycrash.ErrRetryBudgetExhausted, nvct.ErrRetryBudgetExhausted},
		{"trial deadline", easycrash.ErrTrialDeadline, nvct.ErrTrialDeadline},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.facade == nil {
				t.Fatal("facade error is nil")
			}
			if !errors.Is(tc.facade, tc.engine) || !errors.Is(tc.engine, tc.facade) {
				t.Fatalf("facade error %v is not the engine's %v", tc.facade, tc.engine)
			}
			if wrapped := fmt.Errorf("campaign: %w", tc.engine); !errors.Is(wrapped, tc.facade) {
				t.Fatalf("errors.Is fails through wrapping for %v", tc.facade)
			}
			if tc.facade.Error() == "" {
				t.Fatal("named error has an empty message")
			}
		})
	}
}

// TestFacadeNestedCampaign drives a small nested-failure campaign purely
// through the facade: options, chain records and R(k) metrics must all be
// reachable without importing internal packages.
func TestFacadeNestedCampaign(t *testing.T) {
	factory, err := easycrash.NewKernel("mg", easycrash.ProfileTest)
	if err != nil {
		t.Fatal(err)
	}
	tester, err := easycrash.NewTester(factory, easycrash.TesterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep := tester.RunCampaign(nil, easycrash.CampaignOpts{
		Tests: 20, Seed: 11, RecrashDepth: 1, RetryBudget: 1,
	})
	if rep.MaxDepth() < 1 {
		t.Fatalf("MaxDepth = %d", rep.MaxDepth())
	}
	exhausted := 0
	for _, tr := range rep.Tests {
		var chain []easycrash.ChainCrash = tr.Chain
		if len(chain) != tr.Depth {
			t.Fatalf("chain length %d for depth %d", len(chain), tr.Depth)
		}
		if tr.Err == easycrash.ErrRetryBudgetExhausted.Error() {
			exhausted++
		}
	}
	if rep.MaxDepth() > 1 && exhausted == 0 {
		t.Fatal("depth-2 chains under budget 1 never reported ErrRetryBudgetExhausted")
	}
}
