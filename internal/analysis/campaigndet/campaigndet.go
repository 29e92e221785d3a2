// Package campaigndet flags sources of nondeterminism in kernels and
// crash-campaign code: the process-global math/rand generator, wall-clock
// reads via time.Now, and iteration over Go maps (whose order is randomized
// by the runtime).
//
// Crash campaigns are replayed from a seed: PR 1's media-fault injection
// derives per-test fault seeds from the campaign seed, and debugging a
// failed test depends on re-running it bit-for-bit. Any of the three
// constructs silently breaks that contract — the campaign still passes, it
// just stops being reproducible.
//
// The check is scoped to the packages where determinism is load-bearing:
// the benchmark kernels (internal/apps), the campaign engine and its
// callbacks (internal/nvct, internal/core, internal/sim), the media-fault
// injector whose RNG stream nested-failure chains replay across power
// losses (internal/faultmodel), the persistent KV workload whose oracle
// verdicts are replayed by trial index (internal/pmemkv), the public facade
// (easycrash) and the runnable examples. Elsewhere — one-shot CLI printing,
// offline analysis — wall clocks and maps are fine and not worth the noise.
// Intentional uses inside the scope (a -timeout deadline, a commutative
// reduction over a map) carry an //eclint:allow campaigndet annotation with
// a justification.
//
// The mutant that earns the analyzer its place: core's Step 2 ranging over
// the inconsistency-vector map instead of its sorted keys, so the selected
// objects come out in Go's randomized map order. eclint flags the range,
// and every tier-1 test still passes.
package campaigndet

import (
	"go/ast"
	"go/types"
	"regexp"

	"easycrash/internal/analysis"
)

// scope matches the import paths where determinism is load-bearing.
var scope = regexp.MustCompile(`^easycrash($|/examples/|/internal/(apps|nvct|core|sim|faultmodel|pmemkv)($|/))`)

// seededConstructors are the math/rand functions that build seeded local
// generators — the fix, not the bug.
var seededConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// Analyzer is the campaigndet check.
var Analyzer = &analysis.Analyzer{
	Name: "campaigndet",
	Doc:  "flags global math/rand, time.Now and map iteration in kernels and campaign code, which break deterministic crash-campaign replay",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !scope.MatchString(analysis.EffectivePath(pass.Path)) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if _, _, isMethod := analysis.RecvNamed(fn); isMethod {
		return // methods on a seeded *rand.Rand are the deterministic path
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"global math/rand.%s draws from process-wide state and breaks deterministic campaign replay; use a *rand.Rand seeded from the campaign seed",
				fn.Name())
		}
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(),
				"time.Now makes campaign behaviour depend on the wall clock; derive deadlines from configuration, or annotate an intentional timeout with //eclint:allow campaigndet")
		}
	}
}

func checkRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
		pass.Reportf(rng.Pos(),
			"map iteration order is randomized and breaks deterministic campaign replay; sort the keys first, or annotate an order-insensitive reduction with //eclint:allow campaigndet")
	}
}
