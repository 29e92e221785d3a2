package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadContract(t *testing.T, root string) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesRegistry holds BENCHMARK.json and the metric and workload
// tables in this package to each other.
func TestContractMatchesRegistry(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	c := loadContract(t, root)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	known := map[string]bool{}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		known["@"+w.Name] = true
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the benchmark has %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, m := range c.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %q: bad name or bound %v", m.Name, m.Bound)
		}
		known[m.Name] = true
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the benchmark has %d", len(c.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range c.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || seen[m.Name] || known[m.Name] {
			t.Errorf("per-layer %q: bad or repeated name", m.Name)
		}
		seen[m.Name] = true
		// Every prediction names an end-to-end metric and a workload that exist.
		for _, target := range append(append([]string(nil), d.Moves...), d.NotMoves...) {
			metric, workload, ok := strings.Cut(target, "@")
			if !ok || !known[metric] || !known["@"+workload] {
				t.Errorf("per-layer %q: prediction %q names no end-to-end metric and workload", m.Name, target)
			}
		}
	}
}

// smokeRun runs every workload at the smoke scale and returns, per workload,
// the result and the metric lines it printed.
func smokeRun(t *testing.T, opt options) (map[string]*result, map[string]map[string]int) {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	opt.smoke, opt.seed, opt.seconds, opt.root, opt.out = true, 1, 1, root, &out
	if opt.golden == "" {
		opt.golden = filepath.Join(root, "benchmark", "golden.json")
	}
	results := map[string]*result{}
	for i := range workloads {
		res, err := runWorkload(&workloads[i], &opt)
		if err != nil {
			t.Fatalf("%s: %v\n%s", workloads[i].name, err, out.String())
		}
		results[workloads[i].name] = res
	}
	lines := map[string]map[string]int{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[0] == "#" {
			continue
		}
		if lines[f[0]] == nil {
			lines[f[0]] = map[string]int{}
		}
		lines[f[0]][f[1]]++
	}
	if t.Failed() {
		t.Log(out.String())
	}
	return results, lines
}

// TestSmokeEndToEnd: every workload and end-to-end metric of BENCHMARK.json is
// emitted exactly once, with its unit and a value that is not 0, and every
// correctness check passes against the smoke pins.
func TestSmokeEndToEnd(t *testing.T) {
	results, lines := smokeRun(t, options{})
	for _, w := range workloads {
		res := results[w.name]
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d trials failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics in the result, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
				t.Errorf("%s %s: got %+v (present %v), want a positive value in %s", w.name, m.Name, got, ok, m.Unit)
			}
			if n := lines[w.name][m.Name]; n != 1 {
				t.Errorf("%s %s printed %d times, want once", w.name, m.Name, n)
			}
		}
	}
}

// TestSmokeTraced: the traced pass emits every per-layer metric exactly once
// per workload, the layers that a workload does not use read 0 there, and the
// trace file parses with every span closed and parented.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	results, lines := smokeRun(t, options{trace: true, outDir: dir})
	for _, w := range workloads {
		res := results[w.name]
		if !res.Correct {
			t.Errorf("%s: %d of %d trials failed", w.name, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics in the result, want %d", w.name, len(res.Metrics), len(perLayer))
		}
		// The workloads discriminate: a layer off a workload's path reads 0.
		uses := map[string]bool{
			"faultmodel": w.name == "mg_faults_nested",
			"pmemkv":     w.name == "kv_oracle",
			"campaignd":  w.name == "lu_sharded",
			"core":       w.name == "mg_faults_nested",
		}
		for _, m := range perLayer {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s %s: got %+v (present %v), want a number in %s", w.name, m.Name, got, ok, m.Unit)
			}
			if n := lines[w.name][m.Name]; n != 1 {
				t.Errorf("%s %s printed %d times, want once", w.name, m.Name, n)
			}
			module, _, _ := strings.Cut(m.Name, ".")
			settled := m.Name != "campaignd.retries" && m.Name != "campaignd.overhead_s" // 0 or signed by nature
			if used, gated := uses[module]; gated && settled && used != (got.Value > 0) {
				t.Errorf("%s %s = %v, but the workload uses %s: %v", w.name, m.Name, got.Value, module, used)
			}
		}

		b, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(b, &spans); err != nil {
			t.Fatalf("%s trace: %v", w.name, err)
		}
		roots := 0
		for i, s := range spans {
			if s.Name == "" || s.Workload != w.name || s.StartNS < 0 || s.EndNS < s.StartNS {
				t.Errorf("%s span %d %+v: not closed or not labelled", w.name, i, s)
			}
			switch {
			case s.Parent == -1:
				roots++
			case s.Parent < 0 || s.Parent >= i:
				t.Errorf("%s span %d %q: parent %d is not an earlier span", w.name, i, s.Name, s.Parent)
			case spans[s.Parent].StartNS > s.StartNS || spans[s.Parent].EndNS < s.EndNS:
				t.Errorf("%s span %d %q: not inside its parent %q", w.name, i, s.Name, spans[s.Parent].Name)
			}
		}
		if roots != 1 || len(spans) < 50 {
			t.Errorf("%s trace: %d spans, %d roots; want one root over many spans", w.name, len(spans), roots)
		}
	}
}

// TestCorruptPinFailsTheWorkload: a digest that does not match golden.json
// turns every trial of the workload into a failed one.
func TestCorruptPinFailsTheWorkload(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden(filepath.Join(root, "benchmark", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	g["smoke"]["lulesh_dense"][0].ReportSHA256 = strings.Repeat("0", 64)
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := g.save(path); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	opt := options{smoke: true, seed: 1, root: root, golden: path, out: &out}
	res, err := runWorkload(findWorkload("lulesh_dense"), &opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || !strings.Contains(out.String(), "FAILED check (b)") {
		t.Errorf("corrupt pin: correct %v, failed %d of %d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
	}
}

// TestIQRShare pins the spread to Python's statistics.quantiles(v, n=4).
func TestIQRShare(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := iqrShare(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	if got := iqrShare([]float64{10, 12}); math.Abs(got-3.0/11) > 1e-12 { // quartiles 9.5, 11, 12.5
		t.Errorf("iqrShare(10, 12) = %v, want %v", got, 3.0/11)
	}
}
