// Stable JSON serialization of campaign reports, for archiving campaign
// results and diffing them across engine versions. The wire format is pinned
// by explicit DTOs rather than the internal structs: internal fields can move
// without breaking consumers, and a golden-file test holds the format still.
// Everything that makes the output nondeterministic in general JSON —
// map ordering, optional fields — is nailed down: encoding/json sorts map
// keys, zero-valued optional fields are omitted, and trial order is campaign
// order, so one campaign serializes to one byte sequence. Floats are total:
// see wireFloat.
package nvct

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"easycrash/internal/faultmodel"
)

// wireFloat is a float64 on the wire. A finite value encodes exactly as
// encoding/json encodes a float64; NaN and ±Inf, which a JSON number cannot
// carry (an S4 restart may well compute them), encode as a string holding
// their IEEE-754 bits, so every bit pattern round-trips exactly.
type wireFloat float64

// MarshalJSON implements json.Marshaler.
func (f wireFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Appendf(nil, `"0x%016x"`, math.Float64bits(v)), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler. A string must be exactly what
// MarshalJSON writes for a non-finite value, so each float has one encoding.
func (f *wireFloat) UnmarshalJSON(b []byte) error {
	if len(b) == 0 || b[0] != '"' {
		return json.Unmarshal(b, (*float64)(f))
	}
	var bits uint64
	_, err := fmt.Sscanf(string(b), `"0x%x"`, &bits)
	*f = wireFloat(math.Float64frombits(bits))
	if enc, _ := f.MarshalJSON(); err != nil || !bytes.Equal(enc, b) {
		return fmt.Errorf("nvct: bad non-finite float %s", b)
	}
	return nil
}

// floats converts a float slice between its in-memory and wire element
// types, keeping nil nil.
func floats[T, U ~float64](in []T) []U {
	if in == nil {
		return nil
	}
	out := make([]U, len(in))
	for i, v := range in {
		out[i] = U(v)
	}
	return out
}

// floatMap is floats for the per-object maps.
func floatMap[T, U ~float64](in map[string]T) map[string]U {
	if in == nil {
		return nil
	}
	out := make(map[string]U, len(in))
	//eclint:allow campaigndet — independent per-key map fill, order-insensitive
	for k, v := range in {
		out[k] = U(v)
	}
	return out
}

// reportJSON is the serialized form of a Report.
type reportJSON struct {
	Kernel    string         `json:"kernel"`
	Regions   int            `json:"regions"`
	Requested int            `json:"requested"`
	Tests     int            `json:"tests"`
	Counts    map[string]int `json:"counts"`
	Policy    *policyJSON    `json:"policy,omitempty"`
	Trials    []trialJSON    `json:"trials"`
}

// policyJSON mirrors Policy with stable field names.
type policyJSON struct {
	Objects        []string `json:"objects,omitempty"`
	AtIterationEnd bool     `json:"at_iteration_end,omitempty"`
	AtRegionEnds   []int    `json:"at_region_ends,omitempty"`
	Frequency      int64    `json:"frequency,omitempty"`
	Op             string   `json:"op"`
}

// trialJSON is one TestResult. Nested-failure and oracle fields are omitted
// when empty, so classic campaign output stays compact and stable.
type trialJSON struct {
	Index              int                   `json:"index"`
	CrashAccess        uint64                `json:"crash_access"`
	CrashRegion        int                   `json:"crash_region"`
	CrashIter          int64                 `json:"crash_iter"`
	Outcome            string                `json:"outcome"`
	ExtraIters         int64                 `json:"extra_iters,omitempty"`
	Inconsistency      map[string]wireFloat  `json:"inconsistency,omitempty"`
	FinalResult        []wireFloat           `json:"final_result,omitempty"`
	Media              *faultmodel.Injection `json:"media,omitempty"`
	ScrubbedObjects    int                   `json:"scrubbed_objects,omitempty"`
	Err                string                `json:"err,omitempty"`
	Violations         []string              `json:"violations,omitempty"`
	Depth              int                   `json:"depth,omitempty"`
	Retries            int                   `json:"retries,omitempty"`
	Chain              []chainJSON           `json:"chain,omitempty"`
	FinalInconsistency map[string]wireFloat  `json:"final_inconsistency,omitempty"`
}

// chainJSON is one crash of a nested-failure chain.
type chainJSON struct {
	Access uint64                `json:"access"`
	Region int                   `json:"region"`
	Iter   int64                 `json:"iter"`
	Media  *faultmodel.Injection `json:"media,omitempty"`
}

func injectionJSON(m faultmodel.Injection) *faultmodel.Injection {
	if m == (faultmodel.Injection{}) {
		return nil
	}
	return &m
}

func (r *Report) toJSON() reportJSON {
	out := reportJSON{
		Kernel:    r.Kernel,
		Regions:   r.Regions,
		Requested: r.Requested,
		Tests:     len(r.Tests),
		Counts:    make(map[string]int, NumOutcomes),
		Trials:    make([]trialJSON, len(r.Tests)),
	}
	for o := 0; o < NumOutcomes; o++ {
		out.Counts[Outcome(o).String()] = r.Counts[o]
	}
	if r.Policy != nil {
		out.Policy = &policyJSON{
			Objects:        r.Policy.Objects,
			AtIterationEnd: r.Policy.AtIterationEnd,
			AtRegionEnds:   r.Policy.AtRegionEnds,
			Frequency:      r.Policy.Frequency,
			Op:             r.Policy.Op.String(),
		}
	}
	for i, t := range r.Tests {
		out.Trials[i] = toTrialJSON(i, t)
	}
	return out
}

// toTrialJSON serializes one TestResult. index is the trial's position in the
// serialized container: the slice position for whole reports, the global
// campaign index for shard parts.
func toTrialJSON(index int, t TestResult) trialJSON {
	tj := trialJSON{
		Index:           index,
		CrashAccess:     t.CrashAccess,
		CrashRegion:     t.CrashRegion,
		CrashIter:       t.CrashIter,
		Outcome:         t.Outcome.String(),
		ExtraIters:      t.ExtraIters,
		Inconsistency:   floatMap[float64, wireFloat](t.Inconsistency),
		FinalResult:     floats[float64, wireFloat](t.FinalResult),
		Media:           injectionJSON(t.Media),
		ScrubbedObjects: t.ScrubbedObjects,
		Err:             t.Err,
		Violations:      t.Violations,
		Depth:           t.Depth,
		Retries:         t.Retries,
	}
	if t.Depth > 0 {
		tj.FinalInconsistency = floatMap[float64, wireFloat](t.FinalInconsistency)
		tj.Chain = make([]chainJSON, len(t.Chain))
		for l, c := range t.Chain {
			tj.Chain[l] = chainJSON{Access: c.Access, Region: c.Region, Iter: c.Iter, Media: injectionJSON(c.Media)}
		}
	}
	return tj
}

// fromTrialJSON deserializes one trial. The roundtrip through trialJSON is
// lossless for every field the report digest folds: wireFloat round-trips
// every float64 bit pattern, and the omitted-when-empty fields decode to
// their Go zero values (a nil map where a live trial carried an empty one is
// invisible to both the digest and the stable serialization).
func fromTrialJSON(tj trialJSON) (TestResult, error) {
	out, err := parseOutcome(tj.Outcome)
	if err != nil {
		return TestResult{}, err
	}
	t := TestResult{
		CrashAccess:     tj.CrashAccess,
		CrashRegion:     tj.CrashRegion,
		CrashIter:       tj.CrashIter,
		Outcome:         out,
		ExtraIters:      tj.ExtraIters,
		Inconsistency:   floatMap[wireFloat, float64](tj.Inconsistency),
		FinalResult:     floats[wireFloat, float64](tj.FinalResult),
		ScrubbedObjects: tj.ScrubbedObjects,
		Err:             tj.Err,
		Violations:      tj.Violations,
		Depth:           tj.Depth,
		Retries:         tj.Retries,
	}
	if tj.Media != nil {
		t.Media = *tj.Media
	}
	if tj.Depth > 0 {
		t.FinalInconsistency = floatMap[wireFloat, float64](tj.FinalInconsistency)
		t.Chain = make([]ChainCrash, len(tj.Chain))
		for l, c := range tj.Chain {
			t.Chain[l] = ChainCrash{Access: c.Access, Region: c.Region, Iter: c.Iter}
			if c.Media != nil {
				t.Chain[l].Media = *c.Media
			}
		}
	}
	return t, nil
}

// parseOutcome inverts Outcome.String.
func parseOutcome(s string) (Outcome, error) {
	for o := 0; o < NumOutcomes; o++ {
		if Outcome(o).String() == s {
			return Outcome(o), nil
		}
	}
	return 0, fmt.Errorf("nvct: unknown outcome %q", s)
}

// shardJSON is the wire format of one shard run — the file a campaignd worker
// hands back to its supervisor. Trial indices are global campaign indices.
type shardJSON struct {
	Kernel    string      `json:"kernel"`
	Regions   int         `json:"regions"`
	Requested int         `json:"requested"`
	Shard     int         `json:"shard"`
	Shards    int         `json:"shards"`
	Trials    []trialJSON `json:"trials"`
}

// JSON serializes the shard report to byte-stable JSON (same discipline as
// Report.JSON).
func (sr *ShardReport) JSON() ([]byte, error) {
	out := shardJSON{
		Kernel:    sr.Kernel,
		Regions:   sr.Regions,
		Requested: sr.Requested,
		Shard:     sr.Shard.Index,
		Shards:    sr.Shard.Count,
		Trials:    make([]trialJSON, len(sr.Trials)),
	}
	for i, tr := range sr.Trials {
		out.Trials[i] = toTrialJSON(tr.Index, tr.Res)
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseShardReport deserializes and validates a worker's shard file. It is
// deliberately strict — unknown fields, unparsable outcomes, out-of-range or
// misassigned trial indices and unordered trials are all errors — because the
// supervisor uses parse failure as its garbled-worker detector: a worker that
// was killed mid-write or corrupted its output must be retried, never merged.
func ParseShardReport(data []byte) (*ShardReport, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var in shardJSON
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("nvct: malformed shard report: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("nvct: trailing data after shard report")
	}
	sh := Shard{Index: in.Shard, Count: in.Shards}
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	if in.Kernel == "" {
		return nil, fmt.Errorf("nvct: shard report without kernel")
	}
	if in.Requested <= 0 {
		return nil, fmt.Errorf("nvct: shard report with campaign size %d", in.Requested)
	}
	sr := &ShardReport{Kernel: in.Kernel, Regions: in.Regions, Requested: in.Requested, Shard: sh}
	prev := -1
	for _, tj := range in.Trials {
		if tj.Index < 0 || tj.Index >= in.Requested {
			return nil, fmt.Errorf("nvct: shard trial index %d outside campaign of %d tests", tj.Index, in.Requested)
		}
		if tj.Index%sh.Count != sh.Index {
			return nil, fmt.Errorf("nvct: trial %d does not belong to shard %d/%d", tj.Index, sh.Index, sh.Count)
		}
		if tj.Index <= prev {
			return nil, fmt.Errorf("nvct: shard trials out of order at index %d", tj.Index)
		}
		prev = tj.Index
		res, err := fromTrialJSON(tj)
		if err != nil {
			return nil, err
		}
		sr.Trials = append(sr.Trials, ShardTrial{Index: tj.Index, Res: res})
	}
	return sr, nil
}

// JSON serializes the report to indented, byte-stable JSON: the same campaign
// always produces the same bytes, so serialized reports can be diffed and
// golden-pinned.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r.toJSON(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteJSON writes the stable serialization to w.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := r.JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
