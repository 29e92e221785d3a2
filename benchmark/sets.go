package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkJSON is the part of BENCHMARK.json the benchmark itself reads: the
// regression bound of each end-to-end metric.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spread is one metric of one workload over the sets.
type spread struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Min      float64   `json:"min"`
	Median   float64   `json:"median"`
	Max      float64   `json:"max"`
	// Spread is the distance between the first and third quartile as a share
	// of the median, the quantity the bound is compared with.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound,omitempty"`
}

// iqrShare is (Q3 - Q1) / median with the quartiles of Python's
// statistics.quantiles(values, n=4), its default exclusive method.
func iqrShare(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// runSets runs every workload `sets` times, each in a fresh process, prints
// per-metric min/median/max and spread, writes them to benchmark/out/sets.json
// and fails if an end-to-end metric's spread exceeds its bound.
func runSets(opt *options, ws []*workloadDef, sets int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var bj benchmarkJSON
	b, err := os.ReadFile(filepath.Join(opt.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range bj.EndToEnd {
		bounds[m.Name] = m.Bound
	}

	printEnv(opt.out, opt.root)
	modes := []int{0}
	if opt.trace {
		modes = append(modes, 1)
	}
	values := map[[2]string]*spread{}
	for set := 0; set < sets; set++ {
		for _, w := range ws {
			for _, trace := range modes {
				args := []string{"-workload", w.name, "-seed", strconv.FormatInt(opt.seed, 10),
					"-seconds", strconv.Itoa(opt.seconds), "-trace", strconv.Itoa(trace), "-golden", opt.golden}
				if opt.smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(self, args...)
				cmd.Dir = opt.root
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("set %d %s: %v\n%s", set, w.name, err, out)
				}
				res, err := lastResult(out)
				if err != nil {
					return fmt.Errorf("set %d %s: %w", set, w.name, err)
				}
				fmt.Fprintf(opt.out, "# set %d %s trace=%d: attempted %d failed %d\n", set, w.name, trace, res.Attempted, res.Failed)
				for name, mv := range res.Metrics {
					key := [2]string{w.name, name}
					if values[key] == nil {
						values[key] = &spread{Workload: w.name, Metric: name, Unit: mv.Unit, Bound: bounds[name]}
					}
					values[key].Values = append(values[key].Values, mv.Value)
				}
			}
		}
	}

	var all []*spread
	for _, sp := range values {
		all = append(all, sp)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Workload != all[j].Workload {
			return all[i].Workload < all[j].Workload
		}
		return all[i].Metric < all[j].Metric
	})
	var over []string
	for _, sp := range all {
		sp.Min, sp.Median, sp.Max = quantile(sp.Values, 0), median(sp.Values), quantile(sp.Values, 1)
		sp.Spread = iqrShare(sp.Values)
		note := ""
		if sp.Bound > 0 {
			note = fmt.Sprintf(" bound %.3f", sp.Bound)
			if sp.Spread > sp.Bound && sp.Metric != "setup_s" {
				note += " EXCEEDED"
				over = append(over, sp.Workload+" "+sp.Metric)
			}
		}
		fmt.Fprintf(opt.out, "%s %s min %v median %v max %v %s spread %.4f%s\n",
			sp.Workload, sp.Metric, sp.Min, sp.Median, sp.Max, sp.Unit, sp.Spread, note)
	}

	// One metric per line keeps the file diffable.
	var doc bytes.Buffer
	head, err := json.Marshal(struct {
		Env     env   `json:"env"`
		Seed    int64 `json:"seed"`
		Seconds int   `json:"seconds"`
		Sets    int   `json:"sets"`
	}{readEnv(opt.root), opt.seed, opt.seconds, sets})
	if err != nil {
		return err
	}
	fmt.Fprintf(&doc, "{\"run\": %s, \"metrics\": [\n", head)
	for i, sp := range all {
		line, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		sep := ","
		if i == len(all)-1 {
			sep = ""
		}
		fmt.Fprintf(&doc, "%s%s\n", line, sep)
	}
	doc.WriteString("]}\n")
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(opt.outDir, "sets.json"), doc.Bytes(), 0o644); err != nil {
		return err
	}
	if len(over) > 0 {
		return fmt.Errorf("spread exceeds the bound on %v", over)
	}
	return nil
}

// lastResult parses the last line of a run's standard output.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}
