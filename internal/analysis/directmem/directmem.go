// Package directmem flags calls that read or write the simulated NVM image
// directly, bypassing the cache hierarchy.
//
// EasyCrash's value-accurate simulation depends on every application access
// flowing through cachesim: only cache write-backs and explicit flushes may
// reach the mem.Image, so the durable/volatile split at a crash is exactly
// what real hardware would produce. The raw accessors on mem.Image (Bytes,
// RawWrite, Float64At, SetFloat64At, Int64At, SetInt64At) exist for
// out-of-band work — restoring checkpoints, injecting media faults,
// postmortem inspection — and any use on a kernel's compute path silently
// destroys value accuracy without failing a single test.
//
// Legitimate recovery/validation paths are annotated:
//
//	//eclint:allow directmem — reads the durable image for postmortem analysis
//
// The mutant that earns the analyzer its place: kmeans reading its
// centroids with m.Image().Float64At instead of through the cache. eclint
// flags the call, and every tier-1 test still passes.
package directmem

import (
	"go/ast"

	"easycrash/internal/analysis"
)

// memPath is the import path of the simulated-NVM package.
const memPath = "easycrash/internal/mem"

// rawAccessors are the (*mem.Image) methods that bypass the cache hierarchy.
var rawAccessors = map[string]bool{
	"Bytes":        true,
	"RawWrite":     true,
	"Float64At":    true,
	"SetFloat64At": true,
	"Int64At":      true,
	"SetInt64At":   true,
}

// Analyzer is the directmem check.
var Analyzer = &analysis.Analyzer{
	Name: "directmem",
	Doc:  "flags raw mem.Image access that bypasses the simulated cache hierarchy and breaks value accuracy",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.Info, call)
			if fn == nil || !rawAccessors[fn.Name()] {
				return true
			}
			if pkg, typ, ok := analysis.RecvNamed(fn); !ok || pkg != memPath || typ != "Image" {
				return true
			}
			pass.Reportf(call.Pos(),
				"call to (*mem.Image).%s bypasses the simulated cache hierarchy and breaks value accuracy; route accesses through sim.Machine, or annotate an out-of-band recovery/validation path with //eclint:allow directmem",
				fn.Name())
			return true
		})
	}
	return nil
}
