package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval: a call into a layer's public function, or one
// rung loop carrying its operation count (ns/op = duration ÷ count). Parent is
// the index of the enclosing span in the trace file, -1 for the root.
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Count    int64  `json:"count,omitempty"`
}

// tracer records spans in memory; they are written out once, at exit. The
// benchmark is single-threaded at the span level, so parentage is a stack.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, 4096)}
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Workload: t.workload, EndNS: -1})
	t.open = append(t.open, id)
	t.spans[id].StartNS = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int, count int64) {
	end := int64(time.Since(t.t0))
	t.spans[id].EndNS = end
	t.spans[id].Count = count
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span and returns the span's duration in seconds. f
// returns the number of operations it performed (0 for a single call). A nil
// tracer only times f: the untraced run uses the same code paths.
func (t *tracer) do(name string, f func() int64) float64 {
	if t == nil {
		t0 := time.Now()
		f()
		return time.Since(t0).Seconds()
	}
	id := t.begin(name)
	n := f()
	t.end(id, n)
	return float64(t.spans[id].EndNS-t.spans[id].StartNS) / 1e9
}

// rung runs one layer rung: rounds spans of the same name, each preceded by
// an untimed prep.
func (t *tracer) rung(name string, rounds int, prep func(), body func() int64) {
	for r := 0; r < rounds; r++ {
		if prep != nil {
			prep()
		}
		t.do(name, body)
	}
}

// nsPerOp is the median, over the spans of that name, of duration ÷ count
// (count 0 reads as one call).
func (t *tracer) nsPerOp(name string) float64 {
	var v []float64
	for _, s := range t.spans {
		if s.Name != name || s.EndNS < 0 {
			continue
		}
		n := s.Count
		if n == 0 {
			n = 1
		}
		v = append(v, float64(s.EndNS-s.StartNS)/float64(n))
	}
	return median(v)
}

// durationsNS lists the durations of the closed spans of that name.
func (t *tracer) durationsNS(name string) []float64 {
	var v []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNS >= 0 {
			v = append(v, float64(s.EndNS-s.StartNS))
		}
	}
	return v
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile is the q-quantile of v by linear interpolation between order
// statistics; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
