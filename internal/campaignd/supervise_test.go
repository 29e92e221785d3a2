package campaignd_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"easycrash/internal/campaignd"
	"easycrash/internal/faultmodel"
	"easycrash/internal/nvct"
)

// TestMain doubles as the worker harness: the supervisor re-execs this test
// binary with CAMPAIGND_WORKER=1 in the environment, and the gate below turns
// that invocation into a real campaignd worker instead of a test run. This is
// how the integration tests exercise genuine subprocess supervision — real
// processes, real kills, real pipes — without a separate worker binary.
func TestMain(m *testing.M) {
	if os.Getenv("CAMPAIGND_WORKER") == "1" {
		os.Exit(campaignd.WorkerMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// testSpec is a small campaign with media faults aggressive enough to produce
// failing trials (DUE outcomes), so fingerprinting and evidence archiving are
// exercised, not just the happy path.
func testSpec() *campaignd.Spec {
	return &campaignd.Spec{
		Kernel: "mg",
		Opts: nvct.CampaignOpts{
			Tests:    12,
			Seed:     5,
			Parallel: 1,
			Faults:   faultmodel.Config{RBER: 1e-5, TornWrites: true},
		},
	}
}

// singleProcess runs the spec's campaign in-process — the reference the
// supervised runs must match byte for byte.
func singleProcess(t *testing.T, spec *campaignd.Spec) *nvct.Report {
	t.Helper()
	tester, err := spec.NewTester()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tester.RunCampaignContext(context.Background(), spec.Policy, spec.Opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// testConfig wires a supervisor config to the re-exec worker harness.
func testConfig(t *testing.T, spec *campaignd.Spec, shards int) campaignd.Config {
	t.Helper()
	return campaignd.Config{
		Spec:          spec,
		Shards:        shards,
		RunDir:        filepath.Join(t.TempDir(), "run"),
		WorkerCommand: []string{os.Args[0]},
		WorkerEnv:     []string{"CAMPAIGND_WORKER=1"},
		Heartbeat:     20 * time.Millisecond,
		BackoffBase:   10 * time.Millisecond,
		BackoffCap:    50 * time.Millisecond,
	}
}

// lockedBuffer is a log sink the supervisor's shard goroutines can share:
// Config.Log is written from all of them at once.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func reportJSON(t *testing.T, rep *nvct.Report) []byte {
	t.Helper()
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSupervisedMatchesSingleProcess(t *testing.T) {
	spec := testSpec()
	want := reportJSON(t, singleProcess(t, spec))

	res, err := campaignd.Run(context.Background(), testConfig(t, spec, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || len(res.Missing) != 0 {
		t.Fatalf("run incomplete: missing %v, shards %+v", res.Missing, res.Shards)
	}
	for _, st := range res.Shards {
		if st.State != campaignd.ShardOK || st.Attempts != 1 || st.Trials != st.Expected {
			t.Errorf("shard %d: %+v", st.Shard, st)
		}
	}
	if got := reportJSON(t, res.Report); !bytes.Equal(got, want) {
		t.Error("supervised report differs from single-process report")
	}

	// The artifact directory is the run's evidence trail.
	for _, name := range []string{"spec.json", "meta.json", "report.json", "status.json"} {
		if _, err := os.Stat(filepath.Join(res.RunDir, name)); err != nil {
			t.Errorf("artifact %s: %v", name, err)
		}
	}
	onDisk, err := os.ReadFile(filepath.Join(res.RunDir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Error("archived report.json differs from single-process report")
	}
	if res.FailingTrials > 0 {
		if len(res.FailureClasses) == 0 {
			t.Fatal("failing trials but no failure classes")
		}
		ex := res.FailureClasses[0].ExampleTrial
		repro := filepath.Join(res.RunDir, "failures",
			"trial-"+padTrial(ex), "repro.txt")
		if _, err := os.Stat(repro); err != nil {
			t.Errorf("failure evidence: %v", err)
		}
		dump := filepath.Join(res.RunDir, "failures", "trial-"+padTrial(ex), "dump.bin")
		if fi, err := os.Stat(dump); err != nil || fi.Size() == 0 {
			t.Errorf("durable dump evidence: %v", err)
		}
	}
}

func padTrial(n int) string {
	s := ""
	for v := n; ; v /= 10 {
		s = string(rune('0'+v%10)) + s
		if v < 10 {
			break
		}
	}
	for len(s) < 6 {
		s = "0" + s
	}
	return s
}

// TestChaosRecovery is the acceptance scenario: one worker killed, one hung,
// one garbling its output — all recovered by retry/backoff, and the merged
// report still byte-identical to the single-process engine.
func TestChaosRecovery(t *testing.T) {
	spec := testSpec()
	want := singleProcess(t, spec)

	cfg := testConfig(t, spec, 4)
	cfg.Chaos = "crash@0.1,hang@1.1,garble@2.1"
	// The hung worker beats once and then goes silent mid-shard; the default
	// 2s heartbeat timeout reclaims it. Don't be tempted to shrink the
	// timeout for test speed: live workers beat every 20ms, but on a loaded
	// single-core machine under the race detector the supervisor can fall
	// ~600ms behind in *observing* those beats, and a sub-second timeout
	// kills healthy workers.
	var logBuf lockedBuffer
	cfg.Log = &logBuf

	res, err := campaignd.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("chaos run incomplete: missing %v\nlog:\n%s", res.Missing, logBuf.String())
	}
	wantKinds := map[int]string{0: "dead", 1: "hung", 2: "garbled"}
	for shard, kind := range wantKinds {
		st := res.Shards[shard]
		if st.State != campaignd.ShardOK || st.Attempts != 2 {
			t.Errorf("shard %d: state %s after %d attempts, want ok after 2\nlog:\n%s",
				shard, st.State, st.Attempts, logBuf.String())
			continue
		}
		if len(st.Failures) != 1 || st.Failures[0].Kind != kind {
			t.Errorf("shard %d failures = %+v, want one %q", shard, st.Failures, kind)
		}
	}
	if st := res.Shards[3]; st.State != campaignd.ShardOK || st.Attempts != 1 {
		t.Errorf("clean shard 3: %+v", st)
	}
	if !reflect.DeepEqual(res.Report, want) {
		t.Error("chaos-recovered report != single-process report")
	}
	if got := reportJSON(t, res.Report); !bytes.Equal(got, reportJSON(t, want)) {
		t.Error("chaos-recovered report bytes differ")
	}
}

// TestRetryBudgetExhaustion: a shard that fails every attempt degrades the
// run to a partial merged report with per-shard status — not an error.
func TestRetryBudgetExhaustion(t *testing.T) {
	spec := testSpec()
	want := singleProcess(t, spec)

	cfg := testConfig(t, spec, 3)
	cfg.MaxAttempts = 2
	cfg.Chaos = "crash@1.1,crash@1.2"

	res, err := campaignd.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("run claims completeness with an exhausted shard")
	}
	st := res.Shards[1]
	if st.State != campaignd.ShardExhausted || st.Attempts != 2 || len(st.Failures) != 2 {
		t.Fatalf("exhausted shard: %+v", st)
	}
	lost := nvct.Shard{Index: 1, Count: 3}.Indices(spec.Opts.Tests)
	if !reflect.DeepEqual(res.Missing, lost) {
		t.Fatalf("missing %v, want shard 1's trials %v", res.Missing, lost)
	}
	if len(res.Report.Tests) != spec.Opts.Tests-len(lost) {
		t.Fatalf("partial report has %d trials, want %d", len(res.Report.Tests), spec.Opts.Tests-len(lost))
	}
	// The delivered trials are still exactly the single-process trials.
	i := 0
	for idx, tr := range want.Tests {
		if idx%3 == 1 {
			continue
		}
		if !reflect.DeepEqual(res.Report.Tests[i], tr) {
			t.Fatalf("delivered trial %d differs from single-process trial %d", i, idx)
		}
		i++
	}
	// The partial run is archived like any other.
	if _, err := os.Stat(filepath.Join(res.RunDir, "status.json")); err != nil {
		t.Errorf("status artifact: %v", err)
	}
}

// TestCancelledRunStillArchives: a run cancelled before any shard delivers
// still produces the artifact directory and per-shard status, never an
// error-only exit.
func TestCancelledRunStillArchives(t *testing.T) {
	spec := testSpec()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := campaignd.Run(ctx, testConfig(t, spec, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || len(res.Missing) != spec.Opts.Tests {
		t.Fatalf("cancelled run: complete=%v missing=%d", res.Complete, len(res.Missing))
	}
	for _, st := range res.Shards {
		if st.State != campaignd.ShardCancelled {
			t.Errorf("shard %d state %s, want cancelled", st.Shard, st.State)
		}
	}
	for _, name := range []string{"spec.json", "meta.json", "report.json", "status.json"} {
		if _, err := os.Stat(filepath.Join(res.RunDir, name)); err != nil {
			t.Errorf("artifact %s: %v", name, err)
		}
	}
}

// TestKnownFailureDedupAcrossRuns: the second identical supervised run
// reports every failure class as known and leaves the store byte-stable.
func TestKnownFailureDedupAcrossRuns(t *testing.T) {
	spec := testSpec()
	knownPath := filepath.Join(t.TempDir(), "known.json")

	cfg1 := testConfig(t, spec, 2)
	cfg1.KnownPath = knownPath
	res1, err := campaignd.Run(context.Background(), cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if res1.FailingTrials == 0 {
		t.Fatal("test spec produced no failing trials; raise its RBER so dedup is exercised")
	}
	if res1.KnownFailures != 0 || res1.NewFailures != len(res1.FailureClasses) {
		t.Fatalf("first run: %d new / %d known of %d classes",
			res1.NewFailures, res1.KnownFailures, len(res1.FailureClasses))
	}
	store1, err := os.ReadFile(knownPath)
	if err != nil {
		t.Fatal(err)
	}

	cfg2 := testConfig(t, spec, 2)
	cfg2.KnownPath = knownPath
	res2, err := campaignd.Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.NewFailures != 0 || res2.KnownFailures != len(res1.FailureClasses) {
		t.Fatalf("second run: %d new / %d known, want 0 / %d",
			res2.NewFailures, res2.KnownFailures, len(res1.FailureClasses))
	}
	store2, err := os.ReadFile(knownPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(store1, store2) {
		t.Error("known-failure store not byte-stable across identical runs")
	}
}
