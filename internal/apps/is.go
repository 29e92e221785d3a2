package apps

import (
	"easycrash/internal/mem"
	"easycrash/internal/sim"
)

// isKMax is the key value range; stored keys are tagged with their epoch
// (iteration) as stored = epoch*isKMax + key, the moral equivalent of NPB
// IS's per-iteration pointer arithmetic into reallocated buffers.
const isKMax = 1 << 20

// IS is a simplified NPB-IS: an iterative integer bucket sort. Each
// iteration ranks the key array by counting sort and derives the next
// epoch's keys from the ranked order. Regions:
//
//	R0: clear bucket counts
//	R1: detag keys and histogram them (a stale-epoch key here is the
//	    paper's segmentation fault: an index outside the valid range)
//	R2: prefix-sum bucket directory
//	R3: scatter ranks into the permutation
//	R4: partial rank verification
//	R5: derive next keys from the ranked order into the staging buffer
//	R6: retag and commit the staged keys
//	R7: iteration checksum
//
// Without persistence a crash leaves NVM keys from older epochs; the
// restart detags them into out-of-range values and is interrupted — the
// paper observes IS cannot restart (S3, segfault) without EasyCrash.
type IS struct {
	n        int
	nbuckets int
	nit      int64

	keys, stage mem.Object // epoch-tagged keys and staging buffer (candidates)
	perm        mem.Object // rank permutation (candidate)
	counts, dir mem.Object // per-iteration histogram state (rebuilt)
	chk         mem.Object // running checksum (candidate)
	it          mem.Object
}

// NewIS creates an IS kernel at the given profile.
func NewIS(p Profile) *IS {
	switch p {
	case ProfileBench:
		return &IS{n: 12288, nbuckets: 512, nit: 10}
	default:
		return &IS{n: 6144, nbuckets: 512, nit: 10}
	}
}

// Name implements Kernel.
func (k *IS) Name() string { return "is" }

// Description implements Kernel.
func (k *IS) Description() string { return "Graph traversal (integer bucket sort)" }

// RegionCount implements Kernel.
func (k *IS) RegionCount() int { return 8 }

// NominalIters implements Kernel.
func (k *IS) NominalIters() int64 { return k.nit }

// Convergent implements Kernel.
func (k *IS) Convergent() bool { return false }

// IterObject implements Kernel.
func (k *IS) IterObject() mem.Object { return k.it }

// Setup implements Kernel.
func (k *IS) Setup(m *sim.Machine) {
	s := m.Space()
	k.keys = s.AllocI64("keys", k.n, true)
	k.stage = s.AllocI64("stage", k.n, true)
	k.perm = s.AllocI64("perm", k.n, true)
	k.counts = s.AllocI64("counts", k.nbuckets, true)
	k.dir = s.AllocI64("dir", k.nbuckets+1, true)
	k.chk = s.AllocF64("chk", 8, true)
	k.it = AllocIter(m)
}

// Init implements Kernel: pseudo-random keys tagged with epoch 0.
func (k *IS) Init(m *sim.Machine) {
	keys, stage, perm := m.I64Stream(k.keys), m.I64Stream(k.stage), m.I64Stream(k.perm)
	counts, dir := m.I64Stream(k.counts), m.I64Stream(k.dir)
	rng := splitmix64(161803)
	for i := 0; i < k.n; i++ {
		keys.Set(i, int64(rng.intn(isKMax))) // epoch 0 tag is zero
		stage.Set(i, 0)
		perm.Set(i, 0)
	}
	for b := 0; b < k.nbuckets; b++ {
		counts.Set(b, 0)
		dir.Set(b, 0)
	}
	dir.Set(k.nbuckets, 0)
	m.F64(k.chk).StoreRun(0, make([]float64, 8))
	m.I64(k.it).Set(0, 0)
}

// Run implements Kernel.
func (k *IS) Run(m *sim.Machine, from, maxIter int64) (int64, error) {
	if maxIter > k.nit {
		maxIter = k.nit
	}
	keys, stage, perm := m.I64(k.keys), m.I64(k.stage), m.I64(k.perm)
	counts, dir := m.I64(k.counts), m.I64(k.dir)
	chk := m.F64(k.chk)
	itv := m.I64(k.it)
	bshift := int64(isKMax / k.nbuckets)

	// Streams cover the sequential walks; the histogram increments, rank
	// scatter and sampled verification are data-dependent and stay scalar.
	keysS, stageS, permS := m.I64Stream(k.keys), m.I64Stream(k.stage), m.I64Stream(k.perm)
	countsS, dirS := m.I64Stream(k.counts), m.I64Stream(k.dir)

	m.MainLoopBegin()
	defer m.MainLoopEnd()
	var executed int64
	for it := from; it < maxIter; it++ {
		m.BeginIteration(it)
		epoch := it * isKMax

		// R0: clear the bucket counts.
		m.BeginRegion(0)
		for b := 0; b < k.nbuckets; b++ {
			countsS.Set(b, 0)
		}
		m.EndRegion(0)

		// R1: detag and histogram. A key from the wrong epoch detags out
		// of range — the restart-time segmentation fault.
		m.BeginRegion(1)
		for i := 0; i < k.n; i++ {
			v := keysS.At(i) - epoch
			if v < 0 || v >= isKMax {
				m.MainLoopEnd()
				return executed, ErrInterrupted
			}
			b := v / bshift
			counts.Set(int(b), counts.At(int(b))+1)
		}
		m.EndRegion(1)

		// R2: prefix-sum the bucket directory.
		m.BeginRegion(2)
		var acc int64
		for b := 0; b < k.nbuckets; b++ {
			dirS.Set(b, acc)
			acc += countsS.At(b)
		}
		dirS.Set(k.nbuckets, acc)
		m.EndRegion(2)

		// R3: scatter the ranks.
		m.BeginRegion(3)
		for i := 0; i < k.n; i++ {
			v := keysS.At(i) - epoch
			b := int(v / bshift)
			r := dir.At(b)
			if r < 0 || r >= int64(k.n) {
				m.MainLoopEnd()
				return executed, ErrInterrupted
			}
			dir.Set(b, r+1)
			perm.Set(int(r), int64(i))
		}
		m.EndRegion(3)

		// R4: partial verification — bucket of perm[i] must be
		// non-decreasing on a sample.
		m.BeginRegion(4)
		prev := int64(-1)
		for s := 0; s < 64; s++ {
			i := s * (k.n / 64)
			b := (keys.At(int(perm.At(i))) - epoch) / bshift
			if b < prev {
				m.MainLoopEnd()
				return executed, ErrInterrupted
			}
			prev = b
		}
		m.EndRegion(4)

		// R5: derive the next epoch's keys from the ranked order.
		m.BeginRegion(5)
		for i := 0; i < k.n; i++ {
			src := int(permS.At(i))
			v := keys.At(src) - epoch
			nv := (v*6364136223846793005 + int64(i)) & (isKMax - 1)
			stageS.Set(i, nv)
		}
		m.EndRegion(5)

		// R6: retag and commit.
		m.BeginRegion(6)
		nextEpoch := (it + 1) * isKMax
		for i := 0; i < k.n; i++ {
			keysS.Set(i, stageS.At(i)+nextEpoch)
		}
		m.EndRegion(6)

		// R7: iteration checksum over a stride of staged keys.
		m.BeginRegion(7)
		var sum float64
		for s := 0; s < 128; s++ {
			sum += float64(stage.At((s * 97) % k.n))
		}
		chk.Set(0, sum)
		m.EndRegion(7)

		itv.Set(0, it+1)
		m.EndIteration(it)
		executed++
	}
	return executed, nil
}

// Result implements Kernel: the last iteration checksum plus a full-key
// checksum.
func (k *IS) Result(m *sim.Machine) []float64 {
	keys := m.I64Stream(k.keys)
	chk := m.F64(k.chk)
	var sum float64
	for i := 0; i < k.n; i += 7 {
		sum += float64(keys.At(i) & (isKMax - 1))
	}
	return []float64{chk.At(0), sum}
}

// Verify implements Kernel: exact match with the golden checksums (sorting
// has no tolerance for approximation).
func (k *IS) Verify(m *sim.Machine, golden []float64) bool {
	got := k.Result(m)
	return relClose(got[0], golden[0], 1e-12) && relClose(got[1], golden[1], 1e-12)
}
