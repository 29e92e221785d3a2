// Package easycrash is the public API of the EasyCrash reproduction — a
// framework (after Ren, Wu and Li, "EasyCrash: Exploring Non-Volatility of
// Non-Volatile Memory for High Performance Computing Under Failures",
// IEEE CLUSTER 2020) that leverages NVM non-volatility to restart HPC
// applications after crashes without traditional checkpoint copies, by
// selectively flushing critical data objects at critical code regions.
//
// The package re-exports the building blocks:
//
//   - Kernels: the benchmark applications (NPB CG/MG/FT/IS/BT/LU/SP/EP,
//     botsspar, LULESH, kmeans) instrumented for crash testing.
//   - Tester: the NVCT crash tester — golden runs, crash campaigns,
//     inconsistency analysis, restart and outcome classification.
//   - Run: the EasyCrash workflow — Spearman-based data-object selection
//     and knapsack-based code-region selection under an overhead budget.
//   - The §7 system-efficiency model and τ.
//
// Every table and figure of the paper's evaluation — the Figure-9
// write-traffic comparison and the §8 recomputability predictor included —
// is regenerated by the figure runner in this package's tests
// (go test -bench . -benchtime 1x).
//
// A minimal session:
//
//	factory, _ := easycrash.NewKernel("mg", easycrash.ProfileTest)
//	result, _ := easycrash.Run(factory, easycrash.Config{Tests: 200})
//	fmt.Println(result.Critical, result.AchievedY())
//
// See the examples directory for complete programs.
package easycrash

import (
	"easycrash/internal/apps"
	"easycrash/internal/cachesim"
	"easycrash/internal/core"
	"easycrash/internal/faultmodel"
	"easycrash/internal/nvct"
	"easycrash/internal/sysmodel"
)

// Kernel is one benchmark application (see package apps).
type Kernel = apps.Kernel

// Factory creates fresh kernel instances.
type Factory = apps.Factory

// Profile selects a kernel problem size.
type Profile = apps.Profile

// Problem-size profiles.
const (
	ProfileTest  = apps.ProfileTest
	ProfileBench = apps.ProfileBench
)

// NewKernel returns a factory for the named kernel ("cg", "mg", "ft", "is",
// "bt", "lu", "sp", "ep", "botsspar", "lulesh", "kmeans").
func NewKernel(name string, p Profile) (Factory, error) { return apps.New(name, p) }

// KernelNames lists all kernels in the paper's Table-1 order.
func KernelNames() []string { return apps.Names() }

// Tester is the NVCT crash tester bound to one kernel's golden run.
type Tester = nvct.Tester

// TesterConfig configures the simulated machine of a Tester.
type TesterConfig = nvct.Config

// CampaignOpts configures one crash-test campaign.
type CampaignOpts = nvct.CampaignOpts

// Policy is a persistence policy (which objects to flush, where, how often).
type Policy = nvct.Policy

// Report aggregates a crash-test campaign.
type Report = nvct.Report

// Outcome classifies one crash test (S1..S4).
type Outcome = nvct.Outcome

// Crash-test outcomes (Figure 3, extended by the media-fault model and the
// crash-consistency oracle).
const (
	S1    = nvct.S1    // successful recomputation, no extra iterations
	S2    = nvct.S2    // successful recomputation with extra iterations
	S3    = nvct.S3    // interruption
	S4    = nvct.S4    // verification failure
	SDue  = nvct.SDue  // restart hit a detected-uncorrectable media error
	SErr  = nvct.SErr  // the test itself errored (panic or per-test timeout)
	SViol = nvct.SViol // recovery silently violated acknowledged-write consistency
)

// ErrEmptyCrashSpace reports a campaign whose crash-point space is empty —
// the kernel's main loop issued zero crash-eligible accesses, so no crash
// point can be drawn. Test with errors.Is.
var ErrEmptyCrashSpace = nvct.ErrEmptyCrashSpace

// ErrRetryBudgetExhausted reports a nested-failure trial whose recovery kept
// crashing until the per-trial retry budget was spent; the trial is recorded
// as an S3 interruption carrying this error. Test with errors.Is.
var ErrRetryBudgetExhausted = nvct.ErrRetryBudgetExhausted

// ErrTrialDeadline reports a nested-failure trial that exceeded its
// wall-clock deadline (CampaignOpts.TrialDeadline); the trial is recorded as
// SErr and the campaign continues. Test with errors.Is.
var ErrTrialDeadline = nvct.ErrTrialDeadline

// ChainCrash is one crash of a nested-failure trial's crash chain (see
// CampaignOpts.RecrashDepth and TestResult.Chain).
type ChainCrash = nvct.ChainCrash

// FaultConfig describes the NVM media-fault model applied at each simulated
// crash: torn writes at the 8-byte atomic-write granularity, raw bit errors
// at a configurable rate, and per-block ECC. The zero value is the paper's
// intact-NVM assumption and leaves campaigns byte-identical.
type FaultConfig = faultmodel.Config

// ECCConfig is a per-block error-correcting-code capability.
type ECCConfig = faultmodel.ECC

// SECDED returns the classic single-error-correct, double-error-detect code.
func SECDED() ECCConfig { return faultmodel.SECDED() }

// FaultInjection summarises the media faults injected into one crash test.
type FaultInjection = faultmodel.Injection

// NewTester performs a kernel's golden run and returns a crash tester.
func NewTester(f Factory, cfg TesterConfig) (*Tester, error) { return nvct.NewTester(f, cfg) }

// IterationPolicy persists the named objects at the end of every main-loop
// iteration.
func IterationPolicy(objects []string) *Policy { return nvct.IterationPolicy(objects) }

// EveryRegionPolicy persists the named objects at the end of every region
// of every iteration (the "best recomputability" reference policy).
func EveryRegionPolicy(objects []string, regions int) *Policy {
	return nvct.EveryRegionPolicy(objects, regions)
}

// Config parameterises the EasyCrash workflow.
type Config = core.Config

// Result is the workflow's decision record.
type Result = core.Result

// Run executes the full EasyCrash workflow (Steps 1-4 of §5.3) for a kernel.
func Run(f Factory, cfg Config) (*Result, error) { return core.Run(f, cfg) }

// RunWithTester executes the workflow against an existing tester.
func RunWithTester(t *Tester, cfg Config) (*Result, error) { return core.RunWithTester(t, cfg) }

// CacheConfig describes a simulated cache hierarchy.
type CacheConfig = cachesim.Config

// TestCacheConfig is the small, fast hierarchy the test-profile kernels are
// scaled against.
func TestCacheConfig() CacheConfig { return cachesim.TestConfig() }

// PaperCacheConfig approximates the paper's Xeon Gold 6126 hierarchy.
func PaperCacheConfig() CacheConfig { return cachesim.PaperConfig() }

// SystemParams parameterises the §7 system-efficiency model.
type SystemParams = sysmodel.Params

// SystemEfficiency evaluates efficiency without and with EasyCrash and the
// absolute gain.
func SystemEfficiency(p SystemParams) (base, ec, gain float64, err error) {
	return sysmodel.Improvement(p)
}

// Tau computes the recomputability threshold τ above which EasyCrash beats
// plain checkpoint/restart at the given operating point.
func Tau(p SystemParams) (float64, error) { return sysmodel.Tau(p) }
