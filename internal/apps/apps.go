// Package apps contains the benchmark kernels the paper characterises
// (Table 1): self-contained Go implementations of the numerical cores of the
// NPB kernels (CG, MG, FT, IS, BT, LU, SP, EP), SPEC OMP botsspar, LULESH
// and kmeans, each structured the way EasyCrash requires:
//
//   - heap/global data objects registered in simulated NVM, with candidate
//     critical data objects flagged (lifetime = main loop, not read-only);
//   - a main computation loop whose first-level inner loops are marked as
//     code regions;
//   - an application-specific acceptance verification;
//   - restart support: re-initialisation plus reloading persisted objects.
//
// Every demand access goes through the simulated cache hierarchy, so crash
// tests observe exactly the volatile/durable split a real NVM machine would.
package apps

import (
	"errors"
	"fmt"

	"easycrash/internal/mem"
	"easycrash/internal/sim"
)

// ErrInterrupted reports that a restarted run could not proceed — the moral
// equivalent of the segmentation faults the paper observes (response S3),
// e.g. a restored index object directing accesses out of bounds.
var ErrInterrupted = errors.New("apps: execution interrupted by corrupted state")

// Kernel is one benchmark application driven by the crash tester. A Kernel
// instance is bound to one Machine at a time: Setup registers its data
// objects there, and subsequent calls operate on that machine.
type Kernel interface {
	// Name is the benchmark's short name (e.g. "mg").
	Name() string
	// Description is the Table-1 style category description.
	Description() string
	// RegionCount returns the number of first-level code regions.
	RegionCount() int
	// NominalIters is the main-loop iteration count of an undisturbed run.
	NominalIters() int64
	// Convergent reports whether the kernel may legitimately take extra
	// iterations after a restart (iterative solvers with a convergence
	// criterion: CG, kmeans).
	Convergent() bool
	// Setup allocates and registers the kernel's data objects on m.
	// It must be deterministic so layouts agree across machines.
	Setup(m *sim.Machine)
	// Init runs the initialisation phase (also re-run on every restart).
	Init(m *sim.Machine)
	// Run executes main-loop iterations starting at from (0-based), through
	// at most maxIter total iterations (counting from iteration 0), and
	// returns how many iterations it executed. Convergent kernels may stop
	// early once converged; fixed-iteration kernels stop at NominalIters.
	// It returns ErrInterrupted if corrupted state prevents progress.
	Run(m *sim.Machine, from, maxIter int64) (executed int64, err error)
	// Result extracts the outcome scalars of a completed run; the golden
	// run's Result is the acceptance reference.
	Result(m *sim.Machine) []float64
	// Verify is the acceptance verification: it checks the current outcome
	// against the golden reference (or an internal convergence criterion).
	Verify(m *sim.Machine, golden []float64) bool
	// IterObject returns the persisted loop-iterator object ("it"). Valid
	// after Setup.
	IterObject() mem.Object
}

// IterObjectName is the conventional name of the loop-iterator bookmark
// object every kernel allocates (paper footnote 3: the iterator is always
// persisted so restart knows where the crash happened).
const IterObjectName = "it"

// AllocIter allocates the conventional iterator object on m.
func AllocIter(m *sim.Machine) mem.Object {
	return m.Space().AllocI64(IterObjectName, 1, false)
}

// Factory creates a fresh kernel instance (one per run).
type Factory func() Kernel

// Profile selects a problem size.
type Profile int

const (
	// ProfileTest is sized for fast crash-test campaigns against
	// cachesim.TestConfig (footprint a few times the 32 KiB test LLC).
	ProfileTest Profile = iota
	// ProfileBench is sized for the benchmark harness (larger footprint,
	// longer runs; still far smaller than the paper's Class C, scaled with
	// the cache).
	ProfileBench
)

// registry of kernels, in the paper's Table 1 order.
var registryOrder = []string{"cg", "mg", "ft", "is", "bt", "lu", "sp", "ep", "botsspar", "lulesh", "kmeans"}

// registered holds kernels contributed by other packages through Register;
// extOrder keeps their registration order so Names stays deterministic.
var (
	registered = map[string]func(Profile) Kernel{}
	extOrder   []string
)

// Register adds a kernel constructor under the given name, making it
// resolvable through New and listed by Names after the built-in set.
// Packages that implement kernels outside this one (e.g. the persistent KV
// workload) register themselves from an init function; importing them for
// side effects is enough to make their kernels available. Register panics on
// a duplicate or built-in name — both are programming errors.
func Register(name string, ctor func(Profile) Kernel) {
	if ctor == nil {
		panic(fmt.Sprintf("apps: nil constructor registered for %q", name))
	}
	if _, dup := registered[name]; dup {
		panic(fmt.Sprintf("apps: kernel %q registered twice", name))
	}
	for _, b := range registryOrder {
		if b == name {
			panic(fmt.Sprintf("apps: kernel %q shadows a built-in", name))
		}
	}
	registered[name] = ctor
	extOrder = append(extOrder, name)
}

// New returns a factory for the named kernel at the given profile. It
// returns an error for unknown names.
func New(name string, p Profile) (Factory, error) {
	if ctor, ok := registered[name]; ok {
		return func() Kernel { return ctor(p) }, nil
	}
	switch name {
	case "cg":
		return func() Kernel { return NewCG(p) }, nil
	case "mg":
		return func() Kernel { return NewMG(p) }, nil
	case "ft":
		return func() Kernel { return NewFT(p) }, nil
	case "is":
		return func() Kernel { return NewIS(p) }, nil
	case "bt":
		return func() Kernel { return NewBT(p) }, nil
	case "lu":
		return func() Kernel { return NewLU(p) }, nil
	case "sp":
		return func() Kernel { return NewSP(p) }, nil
	case "ep":
		return func() Kernel { return NewEP(p) }, nil
	case "botsspar":
		return func() Kernel { return NewBotsspar(p) }, nil
	case "lulesh":
		return func() Kernel { return NewLULESH(p) }, nil
	case "kmeans":
		return func() Kernel { return NewKmeans(p) }, nil
	}
	return nil, fmt.Errorf("apps: unknown kernel %q", name)
}

// Names returns all kernel names: the built-ins in Table-1 order, then any
// Register-ed kernels in registration order.
func Names() []string {
	out := make([]string, 0, len(registryOrder)+len(extOrder))
	out = append(out, registryOrder...)
	out = append(out, extOrder...)
	return out
}

// splitmix64 is the deterministic PRNG used for problem initialisation
// (a stand-in for NPB's randlc; only reproducibility matters).
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 in [0,1).
func (s *splitmix64) f64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// intn returns a deterministic integer in [0, n).
func (s *splitmix64) intn(n int) int {
	return int(s.next() % uint64(n))
}
