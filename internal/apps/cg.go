package apps

import (
	"math"

	"easycrash/internal/mem"
	"easycrash/internal/sim"
)

// CG is a simplified NPB-CG: inverse power iteration for the smallest
// eigenvalue of a sparse symmetric positive-definite matrix, where each
// outer round solves A z = x approximately with a few conjugate-gradient
// steps and then commits the normalised iterate. Regions per round:
//
//	R0:    inner init   z = 0, r = x, p = r, rho = r·r
//	R1-R4: one CG step each
//	R5:    zeta update and commit x = z/‖z‖, convergence check
//
// The eigen-iterate x and the convergence bookkeeping (zetaPrev) carry
// across rounds; the inner Krylov vectors are rebuilt from x every round.
// A restart with exact durable state replays bit-exactly (S1); stale state
// still converges to the same eigenvalue but needs extra rounds — the S2
// responses and the extra-iteration restart overhead the paper reports for
// CG in Table 1.
type CG struct {
	n      int // matrix dimension
	nnzRow int // off-diagonal nonzeros per row
	maxIt  int64
	eps    float64 // zeta stabilisation threshold

	vals         mem.Object // read-only CSR values
	colidx, rptr mem.Object // read-only CSR structure
	x            mem.Object // eigen-iterate (candidate)
	z, rr, pp, q mem.Object // inner CG state, rebuilt each round (candidates)
	scal         mem.Object // zetaPrev and friends (candidate)
	it           mem.Object
}

// NewCG creates a CG kernel at the given profile.
func NewCG(p Profile) *CG {
	switch p {
	case ProfileBench:
		return &CG{n: 640, nnzRow: 5, maxIt: 60, eps: 1e-7}
	default:
		return &CG{n: 320, nnzRow: 5, maxIt: 60, eps: 1e-7}
	}
}

// Name implements Kernel.
func (k *CG) Name() string { return "cg" }

// Description implements Kernel.
func (k *CG) Description() string { return "Sparse linear algebra (conjugate gradient)" }

// RegionCount implements Kernel.
func (k *CG) RegionCount() int { return 6 }

// NominalIters implements Kernel: the round budget; the golden run
// converges earlier and defines the reference round count.
func (k *CG) NominalIters() int64 { return k.maxIt }

// Convergent implements Kernel.
func (k *CG) Convergent() bool { return true }

// IterObject implements Kernel.
func (k *CG) IterObject() mem.Object { return k.it }

// Setup implements Kernel.
func (k *CG) Setup(m *sim.Machine) {
	s := m.Space()
	nnz := k.n * (k.nnzRow + 1)
	k.vals = s.AllocF64("vals", nnz, false)
	k.colidx = s.AllocI64("colidx", nnz, false)
	k.rptr = s.AllocI64("rowptr", k.n+1, false)
	k.x = s.AllocF64("x", k.n, true)
	k.z = s.AllocF64("z", k.n, true)
	k.rr = s.AllocF64("r", k.n, true)
	k.pp = s.AllocF64("p", k.n, true)
	k.q = s.AllocF64("q", k.n, true)
	k.scal = s.AllocF64("scal", 8, true)
	k.it = AllocIter(m)
}

// Init implements Kernel: a random symmetric diagonally dominant matrix and
// the all-ones start vector.
func (k *CG) Init(m *sim.Machine) {
	vals := m.F64Stream(k.vals)
	colidx, rptr := m.I64Stream(k.colidx), m.I64Stream(k.rptr)
	x, z, rr, pp, q := m.F64Stream(k.x), m.F64Stream(k.z), m.F64Stream(k.rr), m.F64Stream(k.pp), m.F64Stream(k.q)

	rng := splitmix64(424242)
	nz := 0
	for i := 0; i < k.n; i++ {
		rptr.Set(i, int64(nz))
		// A handful of light diagonal entries separates the smallest
		// eigenvalue from the rest of the spectrum, giving the inverse
		// power iteration a healthy convergence rate.
		d := 5.2 + 0.4*rng.f64()
		if i == 0 {
			d = 1.8
		}
		vals.Set(nz, d)
		colidx.Set(nz, int64(i))
		nz++
		// A symmetric offset set (±7, ±14, n/2) keeps A = Aᵀ structurally;
		// values come from the unordered pair so A = Aᵀ numerically too.
		offs := [5]int{7, k.n - 7, 14, k.n - 14, k.n / 2}
		for j := 0; j < k.nnzRow; j++ {
			col := (i + offs[j%len(offs)]) % k.n
			lo, hi := i, col
			if lo > hi {
				lo, hi = hi, lo
			}
			pairRng := splitmix64(uint64(lo)*1_000_003 + uint64(hi))
			vals.Set(nz, -(0.2 + 0.1*pairRng.f64()))
			colidx.Set(nz, int64(col))
			nz++
		}
	}
	rptr.Set(k.n, int64(nz))
	inv := 1 / math.Sqrt(float64(k.n))
	for i := 0; i < k.n; i++ {
		x.Set(i, inv)
		z.Set(i, 0)
		rr.Set(i, 0)
		pp.Set(i, 0)
		q.Set(i, 0)
	}
	m.F64(k.scal).StoreRun(0, make([]float64, 8))
	m.I64(k.it).Set(0, 0)
}

// matvec computes dst = A·src. The CSR structure and values are walked
// sequentially through streams; the gather src.At(colidx) is genuinely
// irregular and keeps the scalar path.
func (k *CG) matvec(m *sim.Machine, dst *sim.F64Stream, src sim.F64Slice) {
	vals := m.F64Stream(k.vals)
	colidx := m.I64Stream(k.colidx)
	rptr, rptr1 := m.I64Stream(k.rptr), m.I64Stream(k.rptr)
	for i := 0; i < k.n; i++ {
		lo, hi := rptr.At(i), rptr1.At(i+1)
		var sum float64
		for e := lo; e < hi; e++ {
			sum += vals.At(int(e)) * src.At(int(colidx.At(int(e))))
		}
		dst.Set(i, sum)
	}
}

// Run implements Kernel.
func (k *CG) Run(m *sim.Machine, from, maxIter int64) (int64, error) {
	if maxIter > 2*k.maxIt {
		maxIter = 2 * k.maxIt
	}
	ppSlice := m.F64(k.pp)
	scal := m.F64(k.scal)
	itv := m.I64(k.it)

	// One stream per vector: every inner loop touches each vector at the
	// running index only, so read-modify-write shares the cursor.
	x, z := m.F64Stream(k.x), m.F64Stream(k.z)
	rr, pp, q := m.F64Stream(k.rr), m.F64Stream(k.pp), m.F64Stream(k.q)

	m.MainLoopBegin()
	defer m.MainLoopEnd()
	var executed int64
	for it := from; it < maxIter; it++ {
		m.BeginIteration(it)

		// R0: inner CG init from the committed iterate.
		m.BeginRegion(0)
		var rho float64
		for i := 0; i < k.n; i++ {
			z.Set(i, 0)
			xi := x.At(i)
			rr.Set(i, xi)
			pp.Set(i, xi)
			rho += xi * xi
		}
		m.EndRegion(0)

		// R1..R4: four CG steps on A z = x.
		for step := 0; step < 4; step++ {
			m.BeginRegion(1 + step)
			k.matvec(m, q, ppSlice)
			var pq float64
			for i := 0; i < k.n; i++ {
				pq += pp.At(i) * q.At(i)
			}
			alpha := rho / pq
			var rhoNew float64
			for i := 0; i < k.n; i++ {
				z.Set(i, z.At(i)+alpha*pp.At(i))
				ri := rr.At(i) - alpha*q.At(i)
				rr.Set(i, ri)
				rhoNew += ri * ri
			}
			beta := rhoNew / rho
			for i := 0; i < k.n; i++ {
				pp.Set(i, rr.At(i)+beta*pp.At(i))
			}
			rho = rhoNew
			m.EndRegion(1 + step)
		}

		// R5: zeta update, convergence check, and commit x = z/‖z‖.
		m.BeginRegion(5)
		var xz, zz float64
		for i := 0; i < k.n; i++ {
			xz += x.At(i) * z.At(i)
			zz += z.At(i) * z.At(i)
		}
		zeta := 1 / xz // shiftless Rayleigh estimate of 1/λmin(A⁻¹)
		znorm := math.Sqrt(zz)
		for i := 0; i < k.n; i++ {
			x.Set(i, z.At(i)/znorm)
		}
		zetaPrev := scal.At(0)
		scal.Set(0, zeta)
		m.EndRegion(5)

		itv.Set(0, it+1)
		m.EndIteration(it)
		executed++
		if it > 0 && math.Abs(zeta-zetaPrev) <= k.eps*math.Abs(zeta) {
			break // zeta stabilised
		}
	}
	return executed, nil
}

// Result implements Kernel: the final eigenvalue estimate zeta.
func (k *CG) Result(m *sim.Machine) []float64 {
	return []float64{m.F64(k.scal).At(0)}
}

// Verify implements Kernel: the eigenvalue estimate must match the golden
// run's (the solver converges to the same zeta regardless of perturbation,
// possibly needing extra rounds).
func (k *CG) Verify(m *sim.Machine, golden []float64) bool {
	return relClose(k.Result(m)[0], golden[0], 1e-6)
}
