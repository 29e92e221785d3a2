// Package analysistest runs eclint analyzers over testdata fixture packages
// and checks their findings against `// want` comments, following the
// conventions of golang.org/x/tools/go/analysis/analysistest:
//
//	return rand.Float64() // want `global math/rand\.Float64 draws from process-wide state`
//
// A want comment carries one or more Go string literals, each a regular
// expression that must match the message of a distinct finding reported on
// that line. Findings without a matching want, and wants without a matching
// finding, fail the test.
//
// Fixtures live under testdata/src/<name>/ and are loaded with a
// caller-chosen import path, so a fixture can stand in for a scoped package
// (e.g. easycrash/internal/apps/...) while importing the real mem and sim
// packages.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"easycrash/internal/analysis"
)

// Run loads the fixture package in dir under importPath, applies the
// analyzers, and compares findings with the fixture's want comments.
func Run(t *testing.T, dir, importPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkg, findings := load(t, dir, importPath, analyzers)
	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}

	for _, f := range findings {
		key := posKey{f.Pos.Filename, f.Pos.Line}
		if !wants.match(key, f.Message) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, exps := range wants {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s:%d: no finding matched want %q", key.file, key.line, e.rx.String())
			}
		}
	}
}

// Findings loads the fixture package in dir under importPath and returns the
// raw findings, ignoring want comments. Scope tests use it to prove an
// analyzer stays silent when the same fixture is loaded under an
// out-of-scope import path; stale-allow audit findings are filtered out,
// because out of scope every allow is trivially stale — that is the
// framework speaking, not the analyzer under test.
func Findings(t *testing.T, dir, importPath string, analyzers ...*analysis.Analyzer) []analysis.Finding {
	t.Helper()
	_, findings := load(t, dir, importPath, analyzers)
	var out []analysis.Finding
	for _, f := range findings {
		if f.Analyzer != analysis.AuditName {
			out = append(out, f)
		}
	}
	return out
}

func load(t *testing.T, dir, importPath string, analyzers []*analysis.Analyzer) (*analysis.Package, []analysis.Finding) {
	t.Helper()
	pkg, err := analysis.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	all, err := analysis.RunAnalyzers(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}
	// Suppressed findings are invisible to fixtures, like they are to
	// cmd/eclint's exit code: a fixture line under an //eclint:allow needs no
	// want comment.
	var findings []analysis.Finding
	for _, f := range all {
		if !f.Suppressed {
			findings = append(findings, f)
		}
	}
	return pkg, findings
}

type posKey struct {
	file string
	line int
}

type expectation struct {
	rx      *regexp.Regexp
	matched bool
}

type wantMap map[posKey][]*expectation

func (w wantMap) match(key posKey, message string) bool {
	for _, e := range w[key] {
		if !e.matched && e.rx.MatchString(message) {
			e.matched = true
			return true
		}
	}
	return false
}

// wantRe matches any comment that *claims* to be a want comment, including
// degenerate ones with nothing after the keyword. Matching broadly and then
// validating is what makes malformed wants fail loudly: a want that silently
// matched nothing would let an analyzer regress without failing its fixture.
var wantRe = regexp.MustCompile(`//\s*want\b(.*)$`)

func collectWants(pkg *analysis.Package) (wantMap, error) {
	wants := wantMap{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := posKey{pos.Filename, pos.Line}
				rest := strings.TrimSpace(m[1])
				if rest == "" {
					return nil, fmt.Errorf("%s:%d: malformed want comment %q: no pattern after the keyword", pos.Filename, pos.Line, c.Text)
				}
				for rest != "" {
					lit, err := strconv.QuotedPrefix(rest)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: malformed want comment %q: pattern is not a Go string literal: %w", pos.Filename, pos.Line, c.Text, err)
					}
					pattern, err := strconv.Unquote(lit)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: unquoting %s: %w", pos.Filename, pos.Line, lit, err)
					}
					rx, err := regexp.Compile(pattern)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern %q: %w", pos.Filename, pos.Line, pattern, err)
					}
					wants[key] = append(wants[key], &expectation{rx: rx})
					rest = strings.TrimSpace(rest[len(lit):])
				}
			}
		}
	}
	return wants, nil
}

// String formats a finding list for debugging test failures.
func String(findings []analysis.Finding) string {
	var b strings.Builder
	for _, f := range findings {
		fmt.Fprintf(&b, "%s\n", f)
	}
	return b.String()
}
