// Command campaignrunner is the supervised, sharded campaign runner: it
// splits one nvct campaign into round-robin shards, runs each shard in a
// worker subprocess (a re-exec of this binary in worker mode), and survives
// workers that crash, hang or corrupt their output by killing and requeueing
// them under capped exponential backoff. The merged report is byte-identical
// to the single-process engine's; when a shard's retry budget is exhausted
// the run degrades to a partial report with per-shard status instead of an
// error-only exit.
//
// Usage:
//
//	campaignrunner -kernel mg -tests 200 -seed 1 -shards 4 -run-dir runs/mg
//	     [-persist u,r] [-regions 2,3] [-every-iteration] [-frequency 2]
//	     [-verified] [-during-persistence] [-parallel 2] [-profile bench]
//	     [-cache paper] [-rber 1e-5] [-torn] [-ecc 1] [-ecc-detect 2] [-scrub]
//	     [-timeout 30s] [-recrash-depth 2] [-retry-budget 3] [-trial-deadline 2m]
//	     [-known known-failures.json]
//	     [-max-attempts 3] [-backoff 100ms] [-backoff-cap 2s] [-hb 200ms]
//	     [-hb-timeout 5s] [-evidence 5] [-chaos crash@0.1,hang@1.1]
//
// Every run writes an artifact directory under -run-dir: the campaign spec,
// the invocation metadata, the merged JSON report (identical to nvct -json),
// per-shard supervision status, the raw worker shard files, and for each
// failure class a repro command plus the durable dump recovery read. With
// -known, failure fingerprints are deduplicated against the persistent store
// and the run reports "N new / M known".
//
// The -chaos flag is the test-only failure injector (mode@shard.attempt,
// modes crash|hang|garble) that CI uses to prove the supervision machinery
// works; it has no place in a real sweep.
//
// `campaignrunner worker ...` is the internal worker mode the supervisor
// launches; it is not meant to be invoked by hand.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"easycrash/internal/campaignd"
	"easycrash/internal/cli"
	"easycrash/internal/nvct"

	// Register the persistent KV workloads ("pmemkv", "pmemkv-bug"): workers
	// rebuild their tester from the spec's kernel name, so every kernel nvct
	// knows must be registered in worker mode too.
	_ "easycrash/internal/pmemkv"
)

// workerMode turns a `campaignrunner worker ...` invocation into the worker
// process the supervisor launched; any other invocation returns.
func workerMode() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(campaignd.WorkerMain(os.Args[2:], os.Stdout, os.Stderr))
	}
}

func main() {
	workerMode()

	log.SetFlags(0)
	log.SetPrefix("campaignrunner: ")

	buildSpec := campaignd.RegisterSpecFlags(flag.CommandLine, 1)
	var (
		shards      = flag.Int("shards", 2, "worker shards (>= 1)")
		runDir      = flag.String("run-dir", "", "artifact directory for this run (required)")
		known       = flag.String("known", "", "persistent known-failure store for fingerprint dedup (empty: report every failure as new)")
		maxAttempts = flag.Int("max-attempts", 3, "retry budget per shard, first attempt included")
		backoff     = flag.Duration("backoff", 100*time.Millisecond, "base delay of the capped exponential retry backoff")
		backoffCap  = flag.Duration("backoff-cap", 2*time.Second, "backoff delay cap")
		hb          = flag.Duration("hb", 200*time.Millisecond, "worker heartbeat interval")
		hbTimeout   = flag.Duration("hb-timeout", 0, "heartbeat silence before a worker is declared hung and killed (0: 10x -hb, min 2s)")
		evidence    = flag.Int("evidence", 5, "failure classes to archive a durable dump for (-1: repro commands only)")
		chaos       = flag.String("chaos", "", "test-only worker failure injection: mode@shard.attempt,... (modes crash|hang|garble)")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments %q (all options are flags)", flag.Args())
	}
	if *runDir == "" {
		log.Fatal("-run-dir is required: every campaign writes its evidence somewhere")
	}
	spec, err := buildSpec()
	if err != nil {
		log.Fatal(err)
	}
	cfg := campaignd.Config{
		Spec:             spec,
		Shards:           *shards,
		RunDir:           *runDir,
		KnownPath:        *known,
		MaxAttempts:      *maxAttempts,
		BackoffBase:      *backoff,
		BackoffCap:       *backoffCap,
		Heartbeat:        *hb,
		HeartbeatTimeout: *hbTimeout,
		EvidenceTrials:   *evidence,
		Chaos:            *chaos,
		Log:              os.Stderr,
	}

	// SIGINT/SIGTERM drain the workers (they flush the trials they finished)
	// and the partial result is still merged, archived and printed.
	ctx, stopSignals := cli.SignalContext()
	defer stopSignals()
	res, err := campaignd.Run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}

	rep := res.Report
	fmt.Printf("campaign: %s, %d shards, %d/%d trials (seed %d, policy %s)\n",
		spec.Kernel, *shards, len(rep.Tests), rep.Requested, spec.Opts.Seed, cli.DescribePolicy(spec.Policy, spec.Opts.Verified))
	for _, st := range res.Shards {
		fmt.Printf("  shard %d: %-9s %d/%d trials, %d attempt(s)", st.Shard, st.State, st.Trials, st.Expected, st.Attempts)
		for _, f := range st.Failures {
			fmt.Printf("  [attempt %d %s]", f.Attempt, f.Kind)
		}
		fmt.Println()
	}
	if n := len(rep.Tests); n > 0 {
		fmt.Printf("outcomes:")
		for o := 0; o < nvct.NumOutcomes; o++ {
			if rep.Counts[o] > 0 {
				fmt.Printf(" %s %d", nvct.Outcome(o), rep.Counts[o])
			}
		}
		fmt.Printf("\nrecomputability %.3f, success rate %.3f\n", rep.Recomputability(), rep.SuccessRate())
	}
	fmt.Printf("failures: %d trial(s) in %d class(es): %d new / %d known\n",
		res.FailingTrials, len(res.FailureClasses), res.NewFailures, res.KnownFailures)
	fmt.Printf("artifacts: %s\n", res.RunDir)

	if !res.Complete {
		log.Printf("partial run: %d trial(s) undelivered (see %s/status.json)", len(res.Missing), res.RunDir)
		os.Exit(1)
	}
}
