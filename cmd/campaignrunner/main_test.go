package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"easycrash/internal/campaignd"
	"easycrash/internal/nvct"
)

// TestMain doubles as the worker harness: the supervisor re-execs this test
// binary as `<binary> worker ...`, exactly how it re-execs campaignrunner.
func TestMain(m *testing.M) {
	workerMode()
	os.Exit(m.Run())
}

// TestTimeoutFlagReachesWorkers pins that -timeout is not merely accepted: the
// spec built from the flags carries it to every worker, so a 1 ns per-test
// deadline turns every trial of every shard into ERR.
func TestTimeoutFlagReachesWorkers(t *testing.T) {
	fs := flag.NewFlagSet("campaignrunner", flag.ContinueOnError)
	buildSpec := campaignd.RegisterSpecFlags(fs, 1)
	if err := fs.Parse([]string{"-kernel", "lu", "-tests", "8", "-seed", "3", "-timeout", "1ns"}); err != nil {
		t.Fatal(err)
	}
	spec, err := buildSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Opts.TestTimeout != time.Nanosecond {
		t.Fatalf("spec TestTimeout = %v, want 1ns", spec.Opts.TestTimeout)
	}

	res, err := campaignd.Run(context.Background(), campaignd.Config{
		Spec:          spec,
		Shards:        2,
		RunDir:        filepath.Join(t.TempDir(), "run"),
		WorkerCommand: []string{os.Args[0], "worker"},
		Heartbeat:     20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("run incomplete: missing %v, shards %+v", res.Missing, res.Shards)
	}
	for _, st := range res.Shards {
		if st.State != campaignd.ShardOK || st.Trials != st.Expected {
			t.Errorf("shard %d: %+v", st.Shard, st)
		}
	}
	if got := res.Report.Counts[nvct.SErr]; got != 8 || len(res.Report.Tests) != 8 {
		t.Fatalf("%d of %d trials ERR, want all 8: counts %v", got, len(res.Report.Tests), res.Report.Counts)
	}
}
