package nvct_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"easycrash/internal/faultmodel"
	"easycrash/internal/nvct"
)

// runSharded splits the campaign into shards, runs each in-process and merges
// the parts (shuffled by a fixed rotation so merge order independence is
// exercised too).
func runSharded(t *testing.T, kernel string, policy *nvct.Policy, opts nvct.CampaignOpts, shards int) *nvct.Report {
	t.Helper()
	tr := tester(t, kernel)
	parts := make([]*nvct.ShardReport, 0, shards)
	for s := 0; s < shards; s++ {
		sr, err := tr.RunShardContext(context.Background(), policy, opts, nvct.Shard{Index: s, Count: shards}, nil)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", s, shards, err)
		}
		parts = append(parts, sr)
	}
	parts = append(parts[1:], parts[0]) // merge order must not matter
	rep, err := nvct.MergeShards(policy, parts)
	if err != nil {
		t.Fatalf("merging %d shards: %v", shards, err)
	}
	if missing := nvct.MissingTrials(parts); len(missing) != 0 {
		t.Fatalf("complete shard set missing trials %v", missing)
	}
	return rep
}

// TestShardMergeEquivalence: a campaign split into 1, 2 and 8 shards merges
// back to the exact single-process report — DeepEqual and digest-identical —
// for both the classic and the nested+faults engine paths.
func TestShardMergeEquivalence(t *testing.T) {
	policy := nvct.IterationPolicy([]string{"u", "scal"})
	cases := []struct {
		name string
		opts nvct.CampaignOpts
	}{
		{"baseline", nvct.CampaignOpts{Tests: 30, Seed: 41, Parallel: 2}},
		{"nested+faults", nvct.CampaignOpts{
			Tests: 30, Seed: 47, Parallel: 2, RecrashDepth: 2,
			Faults:         faultmodel.Config{RBER: 2e-6, TornWrites: true, ECC: faultmodel.SECDED()},
			ScrubOnRestart: true,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var pol *nvct.Policy
			if tc.name != "baseline" {
				pol = policy
			}
			live := tester(t, "lu").RunCampaign(pol, tc.opts)
			want := reportDigest(live)
			for _, shards := range []int{1, 2, 8} {
				merged := runSharded(t, "lu", pol, tc.opts, shards)
				if !reflect.DeepEqual(merged, live) {
					t.Errorf("%d-shard merge differs from live report (DeepEqual)", shards)
				}
				if got := reportDigest(merged); got != want {
					t.Errorf("%d-shard merge digest = %s, want live %s", shards, got, want)
				}
			}
		})
	}
}

// TestShardJSONRoundtrip: the shard wire format is lossless — a shard report
// serialized and parsed back merges to the byte-identical campaign report,
// which is the property the multi-process runner rests on (workers hand their
// shard to the supervisor as JSON).
func TestShardJSONRoundtrip(t *testing.T) {
	opts := nvct.CampaignOpts{Tests: 30, Seed: 47, Parallel: 2, RecrashDepth: 2,
		Faults:         faultmodel.Config{RBER: 2e-6, TornWrites: true, ECC: faultmodel.SECDED()},
		ScrubOnRestart: true}
	policy := nvct.IterationPolicy([]string{"u", "scal"})
	tr := tester(t, "lu")

	const shards = 3
	var direct, decoded []*nvct.ShardReport
	for s := 0; s < shards; s++ {
		sr, err := tr.RunShardContext(context.Background(), policy, opts, nvct.Shard{Index: s, Count: shards}, nil)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		direct = append(direct, sr)
		b, err := sr.JSON()
		if err != nil {
			t.Fatalf("shard %d JSON: %v", s, err)
		}
		back, err := nvct.ParseShardReport(b)
		if err != nil {
			t.Fatalf("shard %d parse: %v", s, err)
		}
		b2, err := back.JSON()
		if err != nil {
			t.Fatalf("shard %d re-JSON: %v", s, err)
		}
		if string(b) != string(b2) {
			t.Errorf("shard %d serialization not stable across a decode", s)
		}
		decoded = append(decoded, back)
	}

	mergedDirect, err := nvct.MergeShards(policy, direct)
	if err != nil {
		t.Fatal(err)
	}
	mergedDecoded, err := nvct.MergeShards(policy, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := reportDigest(mergedDirect), reportDigest(mergedDecoded); d1 != d2 {
		t.Errorf("JSON roundtrip changed the merged digest:\n direct  %s\n decoded %s", d1, d2)
	}
	j1, err := mergedDirect.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := mergedDecoded.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("JSON roundtrip changed the merged report serialization")
	}
}

// TestNonFiniteResultsCrossTheWire: S4 restarts of cg and botsspar compute
// NaN final results (cg's trial 66 at seed 1; every botsspar trial). The
// report JSON and the shard files carry them bit-exactly, so a shard that
// went through its wire format, and an in-process 2-shard merge, both
// reproduce the single-process digest and report bytes.
func TestNonFiniteResultsCrossTheWire(t *testing.T) {
	for _, tc := range []struct {
		kernel string
		tests  int
	}{{"cg", 100}, {"botsspar", 10}} {
		t.Run(tc.kernel, func(t *testing.T) {
			opts := nvct.CampaignOpts{Tests: tc.tests, Seed: 1, Parallel: 2}
			live := tester(t, tc.kernel).RunCampaign(nil, opts)
			nonFinite := false
			for _, tr := range live.Tests {
				for _, v := range tr.FinalResult {
					nonFinite = nonFinite || math.IsNaN(v) || math.IsInf(v, 0)
				}
			}
			if !nonFinite {
				t.Fatal("premise broken: no trial computed a non-finite result")
			}
			want, err := live.JSON()
			if err != nil {
				t.Fatalf("single-process report JSON: %v", err)
			}

			sr, err := tester(t, tc.kernel).RunShardContext(context.Background(), nil, opts, nvct.Shard{Index: 0, Count: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sr.JSON()
			if err != nil {
				t.Fatalf("shard JSON: %v", err)
			}
			back, err := nvct.ParseShardReport(b)
			if err != nil {
				t.Fatalf("shard parse: %v", err)
			}
			decoded, err := nvct.MergeShards(nil, []*nvct.ShardReport{back})
			if err != nil {
				t.Fatal(err)
			}

			for path, rep := range map[string]*nvct.Report{
				"JSON round-trip": decoded,
				"2-shard merge":   runSharded(t, tc.kernel, nil, opts, 2),
			} {
				if got := reportDigest(rep); got != reportDigest(live) {
					t.Errorf("%s: digest %s, want single-process %s", path, got, reportDigest(live))
				}
				if got, err := rep.JSON(); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s: report JSON differs from the single-process report (err %v)", path, err)
				}
			}
		})
	}
}

// TestShardPartialMerge: merging an incomplete shard set yields the partial
// report of the delivered trials (graceful degradation), with the missing
// indices reported — never an error.
func TestShardPartialMerge(t *testing.T) {
	opts := nvct.CampaignOpts{Tests: 12, Seed: 41, Parallel: 2}
	tr := tester(t, "lu")
	var parts []*nvct.ShardReport
	for s := 0; s < 3; s++ {
		sr, err := tr.RunShardContext(context.Background(), nil, opts, nvct.Shard{Index: s, Count: 4}, nil)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		parts = append(parts, sr)
	}
	rep, err := nvct.MergeShards(nil, parts)
	if err != nil {
		t.Fatalf("partial merge: %v", err)
	}
	if len(rep.Tests) != 9 {
		t.Fatalf("partial merge kept %d trials, want 9", len(rep.Tests))
	}
	want := []int{3, 7, 11}
	if got := nvct.MissingTrials(parts); !reflect.DeepEqual(got, want) {
		t.Fatalf("missing trials = %v, want %v", got, want)
	}
	live := tr.RunCampaign(nil, opts)
	for k, idx := range []int{0, 1, 2, 4, 5, 6, 8, 9, 10} {
		if !reflect.DeepEqual(rep.Tests[k], live.Tests[idx]) {
			t.Errorf("partial merge trial %d (campaign index %d) differs from live", k, idx)
		}
	}
}

// TestParseShardReportRejectsGarble: the strict parser is the supervisor's
// garbled-worker detector; every corruption class it relies on must fail
// loudly.
func TestParseShardReportRejectsGarble(t *testing.T) {
	tr := tester(t, "mg")
	sr, err := tr.RunShardContext(context.Background(), nil, nvct.CampaignOpts{Tests: 6, Seed: 7}, nvct.Shard{Index: 1, Count: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	good, err := sr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nvct.ParseShardReport(good); err != nil {
		t.Fatalf("intact shard rejected: %v", err)
	}
	bad := map[string][]byte{
		"truncated":     good[:len(good)/2],
		"empty":         nil,
		"trailing":      append(append([]byte{}, good...), []byte("{}")...),
		"unknown field": []byte(`{"kernel":"mg","regions":1,"requested":6,"shard":1,"shards":2,"bogus":1,"trials":[]}`),
		"bad outcome":   []byte(`{"kernel":"mg","regions":1,"requested":6,"shard":1,"shards":2,"trials":[{"index":1,"crash_access":1,"crash_region":0,"crash_iter":0,"outcome":"S9"}]}`),
		"wrong shard":   []byte(`{"kernel":"mg","regions":1,"requested":6,"shard":1,"shards":2,"trials":[{"index":2,"crash_access":1,"crash_region":0,"crash_iter":0,"outcome":"S1"}]}`),
		"index range":   []byte(`{"kernel":"mg","regions":1,"requested":6,"shard":1,"shards":2,"trials":[{"index":7,"crash_access":1,"crash_region":0,"crash_iter":0,"outcome":"S1"}]}`),
		"no kernel":     []byte(`{"kernel":"","regions":1,"requested":6,"shard":1,"shards":2,"trials":[]}`),
		"bad shard":     []byte(`{"kernel":"mg","regions":1,"requested":6,"shard":2,"shards":2,"trials":[]}`),
	}
	for name, data := range bad {
		if _, err := nvct.ParseShardReport(data); err == nil {
			t.Errorf("%s: garbled shard accepted", name)
		}
	}
}

// TestMergeShardsRejectsDuplicates: a trial delivered twice means the parts
// are not a partition of one campaign; merging must refuse rather than pick.
func TestMergeShardsRejectsDuplicates(t *testing.T) {
	tr := tester(t, "mg")
	sr, err := tr.RunShardContext(context.Background(), nil, nvct.CampaignOpts{Tests: 6, Seed: 7}, nvct.Shard{Index: 0, Count: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nvct.MergeShards(nil, []*nvct.ShardReport{sr, sr}); err == nil {
		t.Fatal("duplicate shard parts merged without error")
	}
}
