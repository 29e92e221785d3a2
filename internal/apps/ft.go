package apps

import (
	"math"

	"easycrash/internal/mem"
	"easycrash/internal/sim"
)

// FT is a simplified NPB-FT: a spectral solver that evolves a complex field
// in frequency space and transforms it back for a checksum every time step.
// Regions per iteration:
//
//	R0: evolve    u *= e^{iφ(k)}  (in-place complex rotation per mode)
//	R1: FFT       inverse FFT of the first half of the rows into w
//	R2: FFT       inverse FFT of the second half of the rows
//	R3: checksum  strided checksum of w recorded for this step
//
// The evolve step is an in-place, non-idempotent update: replaying a crashed
// iteration whose partially evolved field already leaked to NVM rotates
// those modes twice. This is why FT is the paper's weakest EasyCrash case
// (it cannot meet the τ requirement at small t_s): even with flushing, only
// crashes before the first eviction of an evolved block replay exactly.
type FT struct {
	rows, cols int // field of rows x cols complex values
	nit        int64

	u, w mem.Object // complex fields, interleaved re/im (candidates)
	sums mem.Object // per-iteration checksums (candidate)
	it   mem.Object
}

// NewFT creates an FT kernel at the given profile.
func NewFT(p Profile) *FT {
	switch p {
	case ProfileBench:
		return &FT{rows: 32, cols: 128, nit: 8}
	default:
		return &FT{rows: 32, cols: 64, nit: 8}
	}
}

// Name implements Kernel.
func (k *FT) Name() string { return "ft" }

// Description implements Kernel.
func (k *FT) Description() string { return "Spectral method (FFT evolution)" }

// RegionCount implements Kernel.
func (k *FT) RegionCount() int { return 4 }

// NominalIters implements Kernel.
func (k *FT) NominalIters() int64 { return k.nit }

// Convergent implements Kernel.
func (k *FT) Convergent() bool { return false }

// IterObject implements Kernel.
func (k *FT) IterObject() mem.Object { return k.it }

// Setup implements Kernel.
func (k *FT) Setup(m *sim.Machine) {
	s := m.Space()
	n := k.rows * k.cols
	k.u = s.AllocF64("u", 2*n, true)
	k.w = s.AllocF64("w", 2*n, true)
	k.sums = s.AllocF64("sums", int(2*k.nit), true)
	k.it = AllocIter(m)
}

// Init implements Kernel: a deterministic pseudo-random complex field.
func (k *FT) Init(m *sim.Machine) {
	u, w, sums := m.F64Stream(k.u), m.F64Stream(k.w), m.F64Stream(k.sums)
	rng := splitmix64(271828)
	for i := 0; i < k.rows*k.cols; i++ {
		u.Set(2*i, rng.f64()*2-1)
		u.Set(2*i+1, rng.f64()*2-1)
		w.Set(2*i, 0)
		w.Set(2*i+1, 0)
	}
	for i := 0; i < sums.Len(); i++ {
		sums.Set(i, 0)
	}
	m.I64(k.it).Set(0, 0)
}

// phase returns the per-mode rotation angle (a stand-in for exp(-4π²it·k²)).
func (k *FT) phase(row, col int) float64 {
	kx := col
	if kx > k.cols/2 {
		kx = k.cols - kx
	}
	ky := row
	if ky > k.rows/2 {
		ky = k.rows - ky
	}
	return -0.0007 * float64(kx*kx+ky*ky)
}

// fftRow runs an in-place iterative radix-2 FFT over one row of w. Streams
// carry all the traffic: the butterfly a/b arms are block-sequential within
// each stage, and even the bit-reversed j side is correct (if rarely
// memoized) on a stream, since streams are access-for-access equivalent to
// the scalar path for any pattern.
func (k *FT) fftRow(m *sim.Machine, row int) {
	n := k.cols
	base := 2 * row * n
	si, sj := m.F64Stream(k.w), m.F64Stream(k.w)
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			wi0, wi1 := si.At(base+2*i), si.At(base+2*i+1)
			wj0, wj1 := sj.At(base+2*j), sj.At(base+2*j+1)
			si.Set(base+2*i, wj0)
			si.Set(base+2*i+1, wj1)
			sj.Set(base+2*j, wi0)
			sj.Set(base+2*j+1, wi1)
		}
		mask := n >> 1
		for ; j&mask != 0; mask >>= 1 {
			j &^= mask
		}
		j |= mask
	}
	// Butterflies: one cursor per arm.
	for size := 2; size <= n; size <<= 1 {
		ang := 2 * math.Pi / float64(size)
		wr, wi := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += size {
			cr, ci := 1.0, 0.0
			for p := 0; p < size/2; p++ {
				i0 := base + 2*(start+p)
				i1 := base + 2*(start+p+size/2)
				ar, ai := si.At(i0), si.At(i0+1)
				br, bi := sj.At(i1), sj.At(i1+1)
				tr := br*cr - bi*ci
				ti := br*ci + bi*cr
				si.Set(i0, ar+tr)
				si.Set(i0+1, ai+ti)
				sj.Set(i1, ar-tr)
				sj.Set(i1+1, ai-ti)
				cr, ci = cr*wr-ci*wi, cr*wi+ci*wr
			}
		}
	}
}

// Run implements Kernel.
func (k *FT) Run(m *sim.Machine, from, maxIter int64) (int64, error) {
	if maxIter > k.nit {
		maxIter = k.nit
	}
	wSlice := m.F64(k.w)
	itv := m.I64(k.it)
	n := k.rows * k.cols

	// The evolve and copy loops walk u and w sequentially; only the strided
	// checksum is irregular enough to stay on the scalar slice.
	u, w, sums := m.F64Stream(k.u), m.F64Stream(k.w), m.F64Stream(k.sums)
	uc := m.F64Stream(k.u)

	m.MainLoopBegin()
	defer m.MainLoopEnd()
	var executed int64
	for it := from; it < maxIter; it++ {
		m.BeginIteration(it)

		// R0: evolve the frequency field in place.
		m.BeginRegion(0)
		for row := 0; row < k.rows; row++ {
			for col := 0; col < k.cols; col++ {
				i := 2 * (row*k.cols + col)
				ph := k.phase(row, col)
				cr, ci := math.Cos(ph), math.Sin(ph)
				re, im := u.At(i), u.At(i+1)
				u.Set(i, re*cr-im*ci)
				u.Set(i+1, re*ci+im*cr)
			}
		}
		m.EndRegion(0)

		// R1/R2: copy u into w and inverse-transform each row half.
		for half := 0; half < 2; half++ {
			m.BeginRegion(1 + half)
			lo, hi := half*k.rows/2, (half+1)*k.rows/2
			for row := lo; row < hi; row++ {
				for col := 0; col < k.cols; col++ {
					i := 2 * (row*k.cols + col)
					w.Set(i, uc.At(i))
					w.Set(i+1, uc.At(i+1))
				}
				k.fftRow(m, row)
			}
			m.EndRegion(1 + half)
		}

		// R3: strided checksum of the transformed field.
		m.BeginRegion(3)
		var cr, ci float64
		for j := 0; j < 128; j++ {
			q := (j * 541) % n
			cr, ci = cr+wSlice.At(2*q), ci+wSlice.At(2*q+1)
		}
		sums.Set(int(2*it), cr)
		sums.Set(int(2*it+1), ci)
		m.EndRegion(3)

		itv.Set(0, it+1)
		m.EndIteration(it)
		executed++
	}
	return executed, nil
}

// Result implements Kernel: all per-iteration checksums.
func (k *FT) Result(m *sim.Machine) []float64 {
	sums := m.F64Stream(k.sums)
	out := make([]float64, sums.Len())
	for i := range out {
		out[i] = sums.At(i)
	}
	return out
}

// Verify implements Kernel: every step's checksum must match the reference
// (NPB FT verifies the checksum sequence).
func (k *FT) Verify(m *sim.Machine, golden []float64) bool {
	got := k.Result(m)
	if len(got) != len(golden) {
		return false
	}
	for i := range got {
		if !relClose(got[i], golden[i], 1e-9) {
			return false
		}
	}
	return true
}
