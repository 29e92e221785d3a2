// Package suite enumerates the eclint analyzers. cmd/eclint and the smoke
// tests share this list so a new analyzer registered here is automatically
// enforced in CI.
package suite

import (
	"easycrash/internal/analysis"
	"easycrash/internal/analysis/campaigndet"
	"easycrash/internal/analysis/persistorder"
)

// All returns every eclint analyzer, in output order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		campaigndet.Analyzer,
		persistorder.Analyzer,
	}
}
