// Campaign sharding: run a round-robin slice of one campaign's trials in
// isolation and merge the slices back into the exact single-process report.
//
// A campaign's per-trial state (crash point, fault seed, trial seed) is drawn
// serially from the campaign seed before any trial runs (planCampaign), and
// trials are independent — so any subset of trial indices can execute in a
// separate process against the same plan and produce records identical to the
// full campaign's. Shards slice the index space round-robin (index i belongs
// to shard i mod Count), each shard runs through the same engine sequence as a
// whole campaign (one reference prefix run per shard on the snapshot tree,
// live path for the remainder), and MergeShards reassembles the records in
// campaign order. The merged report is byte-identical to RunCampaignContext's
// — the seed-replay digest pins hold across shard counts — which is what
// makes a supervised multi-process runner (internal/campaignd) trustworthy:
// supervision can retry and reshuffle work without ever changing results.
package nvct

import (
	"context"
	"fmt"
)

// Shard identifies one round-robin slice of a campaign: trial index i belongs
// to shard i mod Count. The zero value is invalid; use Shard{0, 1} for the
// whole campaign.
type Shard struct {
	// Index is this shard's number, in [0, Count).
	Index int
	// Count is the total number of shards the campaign is split into.
	Count int
}

// Validate checks the shard coordinates.
func (s Shard) Validate() error {
	if s.Count <= 0 {
		return fmt.Errorf("nvct: shard count %d, want >= 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("nvct: shard index %d outside [0, %d)", s.Index, s.Count)
	}
	return nil
}

// Indices returns the campaign trial indices belonging to this shard, in
// ascending order, for a campaign of the given size.
func (s Shard) Indices(tests int) []int {
	var out []int
	for i := s.Index; i < tests; i += s.Count {
		out = append(out, i)
	}
	return out
}

// ShardTrial is one completed trial of a shard run, tagged with its global
// campaign index so merging is unambiguous.
type ShardTrial struct {
	// Index is the trial's index in the full campaign (not in the shard).
	Index int
	Res   TestResult
}

// ShardReport is the mergeable result of one shard run. Trials are in
// ascending campaign-index order; a cancelled shard run carries only the
// trials that completed.
type ShardReport struct {
	Kernel  string
	Regions int
	// Requested is the full campaign's size (CampaignOpts.Tests), not the
	// shard's share of it.
	Requested int
	Shard     Shard
	Trials    []ShardTrial
}

// RunShardContext runs this tester's slice of the campaign: the trials whose
// index falls in the shard, executed through the same engine sequence a whole
// campaign uses (snapshot-tree sharing with one reference prefix run for the
// shard, live fallback). The returned trials are byte-identical to the
// corresponding Tests entries of RunCampaignContext with the same options.
// Cancellation returns the partial shard alongside ctx's error, mirroring
// RunCampaignContext. onDone, when non-nil, is invoked with each trial's
// global campaign index as its record lands (a worker's heartbeat source); it
// may be called from concurrent worker goroutines.
func (t *Tester) RunShardContext(ctx context.Context, policy *Policy, opts CampaignOpts, sh Shard, onDone func(int)) (*ShardReport, error) {
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	plan, err := t.planCampaign(policy, &opts)
	if err != nil {
		return nil, err
	}
	out := &ShardReport{Kernel: t.name, Regions: t.golden.Regions, Requested: opts.Tests, Shard: sh}
	// The shard's plan is its slice of the campaign's: every trial keeps the
	// state the full campaign drew for it.
	own := plan.trials[:0]
	for _, i := range sh.Indices(opts.Tests) {
		own = append(own, plan.trials[i])
	}
	if len(own) == 0 {
		// More shards than trials: this shard legitimately owns nothing.
		return out, ctx.Err()
	}
	plan.trials = own

	r := t.newRun(ctx, policy, opts, plan)
	r.onDone = onDone
	r.run()
	for k, tr := range plan.trials {
		if r.done[k] {
			out.Trials = append(out.Trials, ShardTrial{Index: tr.index, Res: r.results[k]})
		}
	}
	return out, ctx.Err()
}

// MergeShards reassembles shard runs into the campaign report, in campaign
// order. Shards may arrive in any order and may be partial (a cancelled or
// budget-exhausted worker): missing trials are simply absent from the merged
// report, exactly as a cancelled single-process campaign compacts to its
// completed tests. Merging every shard of a completed campaign reproduces
// RunCampaignContext's report byte for byte. Duplicate trial indices and
// mismatched campaign identities (kernel, size, region count) are errors —
// they mean the parts are not slices of one campaign.
func MergeShards(policy *Policy, parts []*ShardReport) (*Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("nvct: no shard reports to merge")
	}
	first := parts[0]
	rep := &Report{
		Kernel:    first.Kernel,
		Policy:    policy,
		Regions:   first.Regions,
		Requested: first.Requested,
	}
	results := make([]TestResult, first.Requested)
	done := make([]bool, first.Requested)
	for _, p := range parts {
		if p.Kernel != first.Kernel || p.Regions != first.Regions || p.Requested != first.Requested {
			return nil, fmt.Errorf("nvct: shard %d/%d (kernel %s, %d trials) does not match shard %d/%d (kernel %s, %d trials)",
				p.Shard.Index, p.Shard.Count, p.Kernel, p.Requested,
				first.Shard.Index, first.Shard.Count, first.Kernel, first.Requested)
		}
		for _, tr := range p.Trials {
			if tr.Index < 0 || tr.Index >= first.Requested {
				return nil, fmt.Errorf("nvct: shard %d/%d trial index %d outside campaign of %d tests",
					p.Shard.Index, p.Shard.Count, tr.Index, first.Requested)
			}
			if done[tr.Index] {
				return nil, fmt.Errorf("nvct: trial %d delivered by more than one shard", tr.Index)
			}
			results[tr.Index] = tr.Res
			done[tr.Index] = true
		}
	}
	for i := range results {
		if done[i] {
			rep.Tests = append(rep.Tests, results[i])
			rep.Counts[results[i].Outcome]++
		}
	}
	return rep, nil
}

// MissingTrials returns the campaign indices absent from the given shard
// parts — empty for a fully merged campaign. The supervisor reports them
// per-shard when a retry budget is exhausted.
func MissingTrials(parts []*ShardReport) []int {
	if len(parts) == 0 {
		return nil
	}
	have := make(map[int]bool)
	for _, p := range parts {
		for _, tr := range p.Trials {
			have[tr.Index] = true
		}
	}
	var out []int
	for i := 0; i < parts[0].Requested; i++ {
		if !have[i] {
			out = append(out, i)
		}
	}
	return out
}
