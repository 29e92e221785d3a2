package apps

import (
	"math"

	"easycrash/internal/mem"
	"easycrash/internal/sim"
)

// EP is a simplified NPB-EP: an embarrassingly parallel Monte Carlo kernel.
// Each iteration generates a deterministic batch of uniform pairs, applies
// the acceptance-rejection Gaussian transform, and accumulates the sums and
// an annulus histogram. Regions:
//
//	R0: generate the batch of pairs into the sample buffer
//	R1: transform, accumulate sums and histogram counts
//
// Like NPB's EP, the Gaussian sums accumulate in thread-local scalars —
// stack state, which is outside EasyCrash's scope (§2.2 considers heap and
// global objects only) — and are written to memory once after the last
// batch. A restart therefore loses every pre-crash batch's contribution no
// matter what was flushed, and the verification demands exact counts: EP
// has essentially zero recomputability with or without EasyCrash, matching
// the paper (even persisted, under 3% — only crashes inside the first batch
// replay completely).
type EP struct {
	batches int64
	perB    int

	xbuf mem.Object // sample buffer, regenerated per batch (candidate)
	hist mem.Object // annulus histogram (candidate)
	sums mem.Object // sx, sy, accepted count (candidate)
	it   mem.Object
}

// NewEP creates an EP kernel at the given profile.
func NewEP(p Profile) *EP {
	switch p {
	case ProfileBench:
		return &EP{batches: 48, perB: 2048}
	default:
		return &EP{batches: 48, perB: 1024}
	}
}

// Name implements Kernel.
func (k *EP) Name() string { return "ep" }

// Description implements Kernel.
func (k *EP) Description() string { return "Monte Carlo (Gaussian pairs)" }

// RegionCount implements Kernel.
func (k *EP) RegionCount() int { return 2 }

// NominalIters implements Kernel.
func (k *EP) NominalIters() int64 { return k.batches }

// Convergent implements Kernel.
func (k *EP) Convergent() bool { return false }

// IterObject implements Kernel.
func (k *EP) IterObject() mem.Object { return k.it }

// histBins is sized so the histogram exceeds the test LLC together with the
// sample buffer, giving the accumulators real eviction exposure.
const histBins = 16384

// Setup implements Kernel.
func (k *EP) Setup(m *sim.Machine) {
	s := m.Space()
	k.xbuf = s.AllocF64("xbuf", 2*k.perB, true)
	k.hist = s.AllocI64("hist", histBins, true)
	k.sums = s.AllocF64("sums", 8, true)
	k.it = AllocIter(m)
}

// Init implements Kernel.
func (k *EP) Init(m *sim.Machine) {
	xbuf := m.F64Stream(k.xbuf)
	hist := m.I64Stream(k.hist)
	for i := 0; i < xbuf.Len(); i++ {
		xbuf.Set(i, 0)
	}
	for i := 0; i < histBins; i++ {
		hist.Set(i, 0)
	}
	m.F64(k.sums).StoreRun(0, make([]float64, 8))
	m.I64(k.it).Set(0, 0)
}

// Run implements Kernel.
func (k *EP) Run(m *sim.Machine, from, maxIter int64) (int64, error) {
	if maxIter > k.batches {
		maxIter = k.batches
	}
	sums := m.F64(k.sums)
	hist := m.I64(k.hist)
	itv := m.I64(k.it)
	// The sample buffer is written and read sequentially; the histogram
	// scatter is hash-addressed and stays scalar.
	xbuf := m.F64Stream(k.xbuf)
	// Thread-local accumulators (stack state, never persisted mid-run).
	var sx, sy, acc float64

	m.MainLoopBegin()
	defer m.MainLoopEnd()
	var executed int64
	for it := from; it < maxIter; it++ {
		m.BeginIteration(it)

		// R0: regenerate the batch (pure function of the batch index).
		m.BeginRegion(0)
		rng := splitmix64(0x9E3779B9&uint64(it) + uint64(it)*2654435761 + 12345)
		for i := 0; i < k.perB; i++ {
			xbuf.Set(2*i, rng.f64()*2-1)
			xbuf.Set(2*i+1, rng.f64()*2-1)
		}
		m.EndRegion(0)

		// R1: acceptance-rejection transform and accumulation.
		m.BeginRegion(1)
		for i := 0; i < k.perB; i++ {
			x, y := xbuf.At(2*i), xbuf.At(2*i+1)
			t := x*x + y*y
			if t > 1 || t == 0 {
				continue
			}
			f := math.Sqrt(-2 * math.Log(t) / t)
			gx, gy := x*f, y*f
			sx += gx
			sy += gy
			acc++
			h := math.Float64bits(gx) * 0x9E3779B97F4A7C15
			bin := int((h >> 40) % histBins)
			hist.Set(bin, hist.At(bin)+1)
		}
		m.EndRegion(1)

		itv.Set(0, it+1)
		m.EndIteration(it)
		executed++
	}
	// The register-resident sums reach memory only when the run completes.
	sums.Set(0, sx)
	sums.Set(1, sy)
	sums.Set(2, acc)
	return executed, nil
}

// Result implements Kernel: the Gaussian sums, acceptance count, and a
// histogram checksum.
func (k *EP) Result(m *sim.Machine) []float64 {
	sums := m.F64(k.sums)
	hist := m.I64Stream(k.hist)
	var hsum float64
	for b := 0; b < histBins; b++ {
		hsum += float64(int64(b+1) * hist.At(b))
	}
	return []float64{sums.At(0), sums.At(1), sums.At(2), hsum}
}

// Verify implements Kernel: exact numerical integrity — counts and sums
// must match the reference precisely (the class of application the paper
// identifies as unable to tolerate any inconsistency).
func (k *EP) Verify(m *sim.Machine, golden []float64) bool {
	got := k.Result(m)
	for i := range got {
		if !relClose(got[i], golden[i], 1e-12) {
			return false
		}
	}
	return true
}
