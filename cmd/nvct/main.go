// Command nvct runs crash-test campaigns on a benchmark kernel, printing the
// paper's Figure-3 style response classification and per-object
// data-inconsistency statistics. The media-fault flags extend the paper's
// intact-NVM assumption with torn writes, raw bit errors and per-block ECC.
//
// Usage:
//
//	nvct -kernel mg -tests 200 -seed 1 [-persist u,r] [-regions 2,3]
//	     [-every-iteration] [-frequency 2] [-verified] [-profile bench]
//	     [-cache paper] [-during-persistence] [-parallel 4]
//	     [-rber 1e-5] [-torn] [-ecc 1] [-ecc-detect 2] [-scrub]
//	     [-timeout 30s] [-recrash-depth 2] [-retry-budget 3]
//	     [-trial-deadline 2m] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	     [-repro 17] [-json report.json] [-fail-on-violations]
//	     [-expect-violations]
//
// With -recrash-depth K > 0 the campaign runs the nested-failure model:
// up to K additional crashes strike each trial's recovery runs, and the
// report adds the recoverability-under-re-crash curve R(k). SIGINT/SIGTERM
// cancel the campaign gracefully; the partial report is still printed.
//
// The consistency-oracle workloads (pmemkv, pmemkv-bug) classify silent
// crash-consistency violations as a VIOL outcome; -fail-on-violations /
// -expect-violations turn that count into an exit status for CI, -json
// exports the full per-trial evidence, and -repro N re-runs one campaign
// trial by seed and prints its chain postmortem and oracle verdict.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"easycrash/internal/apps"
	"easycrash/internal/campaignd"
	"easycrash/internal/cli"
	"easycrash/internal/nvct"

	// Register the persistent KV workloads ("pmemkv", "pmemkv-bug") with the
	// kernel registry.
	_ "easycrash/internal/pmemkv"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nvct: ")

	// The campaign flags are the block campaignrunner registers too, so a
	// repro command archived by either parses here.
	buildSpec := campaignd.RegisterSpecFlags(flag.CommandLine, 0)
	list := flag.Bool("list", false, "list kernels and exit")
	profFlags := cli.RegisterProfileFlags(flag.CommandLine)
	oracleFlags := cli.RegisterOracleFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(apps.Names(), "\n"))
		return
	}
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments %q (all options are flags)", flag.Args())
	}
	spec, err := buildSpec()
	if err != nil {
		log.Fatal(err)
	}
	if err := oracleFlags.Validate(); err != nil {
		log.Fatal(err)
	}

	tester, err := spec.NewTester()
	if err != nil {
		log.Fatal(err)
	}
	g := tester.Golden()
	fmt.Printf("kernel %s: %d iterations, %d main-loop accesses, footprint %s (candidates %s), %d regions\n",
		spec.Kernel, g.Iters, g.MainAccesses, cli.Size(g.Footprint), cli.Size(g.CandidateBytes), g.Regions)

	policy, opts, faults := spec.Policy, spec.Opts, spec.Opts.Faults
	// An interrupted campaign (^C, SIGTERM) cancels cleanly: in-flight tests
	// abort, and the partial report of completed tests is still printed.
	ctx, stop := cli.SignalContext()
	defer stop()
	if oracleFlags.Repro >= 0 {
		// Repro mode: re-derive the campaign's trial plan from the seed and
		// re-run just the requested trial, live, printing its postmortem.
		res, err := tester.ReproTrial(ctx, policy, opts, oracleFlags.Repro)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		cli.PrintTrial(os.Stdout, oracleFlags.Repro, res)
		if len(res.Violations) > 0 && oracleFlags.FailOnViolations {
			os.Exit(1)
		}
		if len(res.Violations) == 0 && oracleFlags.ExpectViolations {
			os.Exit(1)
		}
		return
	}
	// Profiles bracket the campaign itself — the hot path worth measuring.
	stopProfiles, err := profFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := tester.RunCampaignContext(ctx, policy, opts)
	if perr := stopProfiles(); perr != nil {
		log.Print(perr)
	}
	if rep == nil {
		log.Fatal(err)
	}
	// Flush the JSON evidence before anything that can exit: an interrupted
	// campaign, zero completed tests, or a violation gate below must never
	// discard the report of the trials that did complete.
	if werr := oracleFlags.WriteReport(rep); werr != nil {
		log.Fatal(werr)
	}
	if err != nil {
		stop() // a second signal kills the process the default way
		log.Printf("campaign interrupted (%v): partial report of %d/%d tests", err, len(rep.Tests), rep.Requested)
	}
	if len(rep.Tests) == 0 {
		log.Fatal("no tests completed")
	}

	fmt.Printf("\ncampaign: %d tests (seed %d, policy %s)\n", len(rep.Tests), opts.Seed, cli.DescribePolicy(policy, opts.Verified))
	if faults.Enabled() {
		fmt.Printf("  media faults: RBER %g, torn writes %v, ECC correct %d / detect %d, scrub %v\n",
			faults.RBER, faults.TornWrites, faults.ECC.CorrectBits, faults.ECC.DetectBits, opts.ScrubOnRestart)
	}
	n := float64(len(rep.Tests))
	fmt.Printf("  S1 success, no extra iters : %4d (%.1f%%)\n", rep.Counts[nvct.S1], 100*float64(rep.Counts[nvct.S1])/n)
	fmt.Printf("  S2 success, extra iters    : %4d (%.1f%%)\n", rep.Counts[nvct.S2], 100*float64(rep.Counts[nvct.S2])/n)
	fmt.Printf("  S3 interruption            : %4d (%.1f%%)\n", rep.Counts[nvct.S3], 100*float64(rep.Counts[nvct.S3])/n)
	fmt.Printf("  S4 verification fails      : %4d (%.1f%%)\n", rep.Counts[nvct.S4], 100*float64(rep.Counts[nvct.S4])/n)
	if rep.Counts[nvct.SDue] > 0 {
		fmt.Printf("  DUE uncorrectable media err: %4d (%.1f%%)\n", rep.Counts[nvct.SDue], 100*float64(rep.Counts[nvct.SDue])/n)
	}
	if rep.Counts[nvct.SErr] > 0 {
		fmt.Printf("  ERR engine errors          : %4d (%.1f%%)\n", rep.Counts[nvct.SErr], 100*float64(rep.Counts[nvct.SErr])/n)
	}
	if rep.Counts[nvct.SViol] > 0 {
		trials, listed := rep.ConsistencyViolations()
		fmt.Printf("  VIOL consistency violations: %4d (%.1f%%), %d violation(s) itemised\n",
			trials, 100*float64(trials)/n, listed)
	}
	fmt.Printf("  recomputability %.3f, success rate %.3f, avg extra iterations %.1f\n",
		rep.Recomputability(), rep.SuccessRate(), rep.AvgExtraIters())
	if faults.Enabled() {
		due, caught, missed := rep.MediaErrorCounts()
		fmt.Printf("  media outcomes: %d detected-uncorrectable, %d silent corruptions caught by verification, %d missed\n",
			due, caught, missed)
	}
	if maxd := rep.MaxDepth(); maxd > 0 {
		fmt.Printf("\nnested failures (depth <= %d): %d recovery attempts consumed, depth counts %v\n",
			opts.RecrashDepth+1, rep.RetriesConsumed(), rep.DepthCounts())
		fmt.Println("recoverability under re-crash:")
		for k, r := range rep.RecrashRecoverability() {
			fmt.Printf("  R(%d) = %.3f\n", k+1, r)
		}
		if mean := rep.MeanFinalInconsistency(); len(mean) > 0 {
			fmt.Println("per-object mean data-inconsistency rate at the final crash of each chain:")
			var finals []string
			for name := range mean {
				finals = append(finals, name)
			}
			sort.Strings(finals)
			for _, name := range finals {
				fmt.Printf("  %-10s %.4f\n", name, mean[name])
			}
		}
	}

	fmt.Println("\nper-region recomputability (c_k):")
	rec, cnt := rep.RegionRecomputability()
	var keys []int
	for k := range cnt {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Printf("  R%-2d  c=%.3f  (%d tests)\n", k, rec[k], cnt[k])
	}

	fmt.Println("\nper-object mean data-inconsistency rate at the crash:")
	vectors := rep.InconsistencyVectors()
	var names []string
	for name := range vectors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rates := vectors[name][0]
		var sum float64
		for _, r := range rates {
			sum += r
		}
		fmt.Printf("  %-10s %.4f\n", name, sum/float64(len(rates)))
	}
	if err != nil {
		os.Exit(1) // the report written above is partial
	}
	if gerr := oracleFlags.CheckViolations(rep); gerr != nil {
		log.Fatal(gerr)
	}
}
