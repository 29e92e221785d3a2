// Command benchmark is the campaign benchmark every performance or simplicity
// claim on this repository is measured with. It runs five named crash-test
// campaign workloads in a closed loop, checks every report for correctness,
// and prints each metric by name with its unit; the last line of standard
// output is one JSON object {correct, attempted, failed, metrics}.
//
//	go run ./benchmark -workload lu_recovery -seed 1 -seconds 12 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json, measured
// with tracing off. With -trace 1 a separate traced pass records a span around
// every call into a layer and every rung loop, writes them to
// benchmark/out/trace-<workload>.json, and the metrics are the per-layer ones
// aggregated from those spans. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	seed    int64
	seconds int
	trace   bool
	smoke   bool
	update  bool
	golden  string    // path of golden.json
	root    string    // module root
	outDir  string    // where trace files go
	out     io.Writer // where metric lines go
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed last for each workload.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var opt options
	var traceFlag, sets int
	workload := flag.String("workload", "all", "workload name, or all")
	flag.Int64Var(&opt.seed, "seed", 1, "campaign seed; the golden pins apply at seed 1")
	flag.IntVar(&opt.seconds, "seconds", 12, "how long each workload's timed reps run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced pass and per-layer metrics; 0: end-to-end metrics")
	flag.BoolVar(&opt.smoke, "smoke", false, "tiny scale: <= 40 trials, 2 reps, rung loops at 1/100 length")
	flag.BoolVar(&opt.update, "update-golden", false, "rewrite the golden pins from this run (seed 1)")
	flag.StringVar(&opt.golden, "golden", "", "golden pin file (default benchmark/golden.json)")
	flag.IntVar(&sets, "sets", 1, "run the benchmark this many times in fresh processes and report the spread")
	flag.Parse()
	opt.trace = traceFlag != 0
	opt.out = os.Stdout

	if err := run(&opt, *workload, sets); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// campaignSeeds is how many campaign seeds one end-to-end run times.
const campaignSeeds = 6

// errIncorrect marks a run whose result was printed but failed a check.
var errIncorrect = errors.New("a correctness check failed")

func run(opt *options, workload string, sets int) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	opt.root = root
	if opt.golden == "" {
		opt.golden = filepath.Join(root, "benchmark", "golden.json")
	}
	opt.outDir = filepath.Join(root, "benchmark", "out")
	if opt.update && opt.seed != 1 {
		return errors.New("-update-golden pins seed 1; run it with -seed 1")
	}
	var ws []*workloadDef
	if workload == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else if w := findWorkload(workload); w != nil {
		ws = append(ws, w)
	} else {
		return fmt.Errorf("unknown workload %q", workload)
	}

	if sets > 1 {
		return runSets(opt, ws, sets)
	}
	printEnv(opt.out, root)
	incorrect := false
	for _, w := range ws {
		res, err := runWorkload(w, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(opt.out, "%s\n", b)
		incorrect = incorrect || !res.Correct
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// moduleRoot walks up from the working directory to this module's go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module easycrash\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the easycrash module (no go.mod found)")
		}
		dir = parent
	}
}

// env is what the numbers were measured on.
type env struct {
	Go     string `json:"go"`
	NProc  int    `json:"nproc"`
	CPU    string `json:"cpu"`
	Commit string `json:"commit"`
}

func readEnv(root string) env {
	e := env{Go: runtime.Version(), NProc: runtime.NumCPU(), CPU: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

func printEnv(out io.Writer, root string) {
	e := readEnv(root)
	fmt.Fprintf(out, "# env go=%s nproc=%d gomaxprocs=%d cpu=%q commit=%s\n", e.Go, e.NProc, runtime.GOMAXPROCS(0), e.CPU, e.Commit)
}

// timing is what the untraced reps of one run measured.
type timing struct {
	rep0      *repResult // the first rep, at the first campaign seed
	wall      float64    // seconds per rep: median over a seed's reps, mean over the seeds
	mallocs   float64    // per rep, aggregated the same way
	walls     []float64  // every rep
	attempted int        // trials
	failed    int
}

// timedReps runs the workload's reps with tracing off, cycling through the
// run's campaign seeds: each is run at least once, then reps go on until the
// time is up. A traced run only needs a baseline for trace.overhead_ratio: one
// seed, a third of the time.
func timedReps(s *state, opt *options) (*timing, error) {
	budget := time.Duration(opt.seconds) * time.Second
	seeds, minReps := campaignSeeds, campaignSeeds
	if opt.trace {
		budget, seeds, minReps = budget/3, 1, 1
	}
	if opt.smoke {
		budget, seeds, minReps = 0, 1, 2
	}
	t := &timing{}
	first := make([][]string, seeds) // per seed, the digests of its first report
	first[0] = s.warm
	walls, mallocs := make([][]float64, seeds), make([][]float64, seeds)
	for start := time.Now(); len(t.walls) < minReps || time.Since(start) < budget; {
		k := len(t.walls) % seeds
		s.useSeed(k)
		runtime.GC()
		r, err := s.rep()
		if err != nil {
			return nil, err
		}
		if t.rep0 == nil {
			t.rep0 = r
		}
		walls[k], mallocs[k] = append(walls[k], r.wall), append(mallocs[k], float64(r.mallocs))
		t.walls = append(t.walls, r.wall)
		t.attempted += s.trials
		// Check (a): every report is byte-identical to the first one made
		// from the same campaign seed, the warm-up campaign's included.
		same := r.status == ""
		for i, b := range r.jsons {
			d := digest(b)
			if len(first[k]) == i {
				first[k] = append(first[k], d)
			}
			same = same && d == first[k][i]
		}
		if same {
			t.failed += r.failed
		} else {
			t.failed += s.trials
			fmt.Fprintf(opt.out, "# %s rep %d: report differs from the first at its seed (a) %s\n", s.w.name, len(t.walls)-1, r.status)
		}
	}
	s.useSeed(0)
	for k := range walls {
		fmt.Fprintf(opt.out, "# %s campaign seed %d walls_s %.4f\n", s.w.name, opt.seed+int64(k)*seedStride, walls[k])
		t.wall += median(walls[k]) / float64(seeds)
		t.mallocs += median(mallocs[k]) / float64(seeds)
	}
	return t, nil
}

// runWorkload sets the workload up, runs its timed reps with tracing off,
// checks the reports and — with -trace 1 — runs the traced pass.
func runWorkload(w *workloadDef, opt *options) (*result, error) {
	// Set-up is repeated and its median reported, so that one cold start does
	// not decide setup_s. The last state is the one measured.
	setups := 3
	if opt.smoke || opt.trace {
		setups = 1
	}
	var s *state
	var setupS []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = setup(w, opt.root, opt.seed, opt.smoke); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.close()

	t, err := timedReps(s, opt)
	if err != nil {
		return nil, err
	}
	emit := func(name string, v float64, unit string) {
		fmt.Fprintf(opt.out, "%s %s %v %s\n", w.name, name, v, unit)
	}
	values := map[string]float64{
		"trials_per_s":     float64(s.trials) / t.wall,
		"allocs_per_trial": t.mallocs / float64(s.trials),
		"setup_s":          median(setupS),
	}
	for _, m := range endToEnd {
		emit(m.Name, values[m.Name], m.Unit)
	}
	n := fmt.Sprintf("ms (n=%d)", len(t.walls))
	emit("wall_p50_ms", median(t.walls)*1e3, n)
	// The highest percentile with at least ten samples beyond it.
	for _, q := range []float64{0.99, 0.95, 0.9, 0.75} {
		if float64(len(t.walls))*(1-q) >= 10 {
			emit(fmt.Sprintf("wall_p%.0f_ms", q*100), quantile(t.walls, q)*1e3, n)
			break
		}
	}

	golden, want, err := pinsFor(w, opt)
	if err != nil {
		return nil, err
	}
	attempted, failed := t.attempted, t.failed
	var ck *checked
	if opt.trace {
		tr := newTracer(w.name)
		layer, traced, tck, err := tracedPass(tr, s, t.rep0, t.wall, want)
		if err != nil {
			return nil, err
		}
		path, err := tr.write(opt.outDir)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(opt.out, "# %s trace: %d spans in %s\n", w.name, len(tr.spans), path)
		ck, values = tck, layer
		attempted, failed = attempted+s.trials, failed+traced.failed
		for _, m := range perLayer {
			emit(m.Name, values[m.Name], m.Unit)
		}
	} else if ck, err = s.check(nil, t.rep0, want); err != nil {
		return nil, err
	}
	if opt.update {
		golden[scaleName(opt.smoke)][w.name] = ck.pins
		if err := golden.save(opt.golden); err != nil {
			return nil, err
		}
		fmt.Fprintf(opt.out, "# %s pins written to %s\n", w.name, opt.golden)
	} else if want == nil {
		fmt.Fprintf(opt.out, "# %s check (b) skipped: the golden pins apply at seed 1 only\n", w.name)
	}
	for _, f := range ck.failures {
		fmt.Fprintf(opt.out, "# %s FAILED check %s\n", w.name, f)
	}
	if len(ck.failures) > 0 {
		failed = attempted // a campaign that fails a check fails all its trials
	}
	emit("failed_trial_share", float64(failed)/float64(attempted), "ratio")

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	for _, m := range defs {
		res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	return res, nil
}

func scaleName(smoke bool) string {
	if smoke {
		return "smoke"
	}
	return "full"
}

// pinsFor loads golden.json and returns the pins check (b) compares against:
// nil at any seed but 1, and when the run is rewriting them.
func pinsFor(w *workloadDef, opt *options) (goldenFile, []pin, error) {
	golden, err := loadGolden(opt.golden)
	if err != nil {
		if !opt.update || !errors.Is(err, os.ErrNotExist) {
			return nil, nil, err
		}
		golden = goldenFile{}
	}
	scale := scaleName(opt.smoke)
	if golden[scale] == nil {
		golden[scale] = map[string][]pin{}
	}
	if opt.seed != 1 || opt.update {
		return golden, nil, nil
	}
	want, ok := golden[scale][w.name]
	if !ok {
		return nil, nil, fmt.Errorf("%s has no %s pins for %s; run -update-golden", opt.golden, scale, w.name)
	}
	return golden, want, nil
}
