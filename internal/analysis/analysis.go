// Package analysis is the self-contained core of eclint, the repo's static
// checker for crash-consistency and determinism bugs in EasyCrash kernels.
//
// It mirrors the shape of golang.org/x/tools/go/analysis — an Analyzer with a
// Run function over a type-checked Pass — but is built on the standard
// library alone (go/ast, go/types, and export data produced by `go list
// -export`), because this module deliberately has no external dependencies.
//
// Findings can be suppressed with an annotation comment on the offending
// line, on the line directly above it, or on the line directly above the
// statement the offending expression belongs to (so a multi-line call can be
// annotated where it starts):
//
//	//eclint:allow campaigndet — key collection, sorted below
//	//eclint:allow campaigndet,persistorder
//
// The annotation names one or more analyzers (comma-separated); everything
// after the names is a free-form justification. Analyzers that set
// RequireReason refuse annotations without one. Unsuppressed findings from
// cmd/eclint fail CI, so every annotation is a reviewed, documented
// exception to a simulation invariant — and an annotation that no longer
// suppresses anything is itself reported (the stale-allow audit), so the
// exception list cannot rot.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AuditName is the analyzer name under which the framework reports stale
// //eclint:allow annotations (annotations that suppress no finding of the
// analyzer they name). It is not a registered analyzer: the audit runs as
// part of RunAnalyzers whenever the named analyzer does.
const AuditName = "allowaudit"

// Analyzer is one static check: a name (used in output and in
// //eclint:allow annotations), one-paragraph documentation, and a Run
// function invoked once per loaded package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// RequireReason makes //eclint:allow annotations naming this analyzer
	// invalid unless they carry a justification after the analyzer names: a
	// bare allow neither suppresses the finding nor passes silently.
	RequireReason bool
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Path     string // package import path (see Package.Path for testdata fixtures)
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(token.Pos, string)
}

// Reportf records a finding at pos. The position must come from a file in
// this pass's package.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// Finding is one reported diagnostic. A finding covered by an //eclint:allow
// annotation is returned with Suppressed set (and the annotation's
// justification in AllowReason) rather than dropped, so machine-readable
// output can show the audited exceptions next to the real failures.
type Finding struct {
	Analyzer    string
	Pos         token.Position
	Message     string
	Suppressed  bool
	AllowReason string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// RunAnalyzers applies the analyzers to one loaded package, marks findings
// covered by the package's //eclint:allow annotations as suppressed, audits
// the annotations themselves (a stale allow, or a reasonless allow for an
// analyzer that requires one, is a finding), and returns everything sorted
// by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	allow := collectAllows(pkg)
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Path:     pkg.Path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		a := a
		pass.report = func(pos token.Pos, msg string) {
			p := pkg.Fset.Position(pos)
			f := Finding{Analyzer: a.Name, Pos: p, Message: msg}
			if e := allow.match(a.Name, a.RequireReason, candidateLines(pkg, pos, p)); e != nil {
				e.used = true
				f.Suppressed = true
				f.AllowReason = e.reason
			}
			out = append(out, f)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	out = append(out, auditAllows(allow, analyzers)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// auditAllows reports the annotations that name one of the analyzers that
// just ran but earned their keep on no finding, and the reasonless
// annotations for analyzers that require a justification. Annotations naming
// analyzers outside this run are left alone — a fixture test running one
// analyzer must not flag allows addressed to another.
func auditAllows(allow *allowSet, analyzers []*Analyzer) []Finding {
	ran := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = a
	}
	var out []Finding
	for _, e := range allow.entries {
		a := ran[e.name]
		if a == nil {
			continue
		}
		if a.RequireReason && e.reason == "" {
			out = append(out, Finding{
				Analyzer: a.Name,
				Pos:      e.pos,
				Message: fmt.Sprintf("//eclint:allow %s requires a justification after the analyzer name; a deliberate violation of the persistence-ordering contract must say why",
					e.name),
			})
			continue
		}
		if !e.used {
			out = append(out, Finding{
				Analyzer: AuditName,
				Pos:      e.pos,
				Message: fmt.Sprintf("//eclint:allow %s suppresses no %s finding; delete the stale annotation (or move it to the line the finding is reported on)",
					e.name, e.name),
			})
		}
	}
	return out
}

// allowEntry is one analyzer name of one //eclint:allow comment.
type allowEntry struct {
	name   string
	reason string
	pos    token.Position // position of the annotation comment
	used   bool           // did it suppress at least one finding?
}

// allowSet indexes the annotation entries by file and line for lookup while
// keeping the flat list for the audit.
type allowSet struct {
	byLine  map[string]map[int][]*allowEntry
	entries []*allowEntry
}

const allowPrefix = "eclint:allow"

func collectAllows(pkg *Package) *allowSet {
	set := &allowSet{byLine: map[string]map[int][]*allowEntry{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				fields := strings.Fields(text[len(allowPrefix):])
				if len(fields) == 0 {
					continue
				}
				// Everything after the comma-separated analyzer names is the
				// justification; a leading dash variant is punctuation, not
				// content.
				reason := strings.TrimSpace(strings.Join(fields[1:], " "))
				reason = strings.TrimSpace(strings.TrimLeft(reason, "—–-"))
				p := pkg.Fset.Position(c.Pos())
				lines := set.byLine[p.Filename]
				if lines == nil {
					lines = map[int][]*allowEntry{}
					set.byLine[p.Filename] = lines
				}
				for _, name := range strings.Split(fields[0], ",") {
					if name = strings.TrimSpace(name); name != "" {
						e := &allowEntry{name: name, reason: reason, pos: p}
						lines[p.Line] = append(lines[p.Line], e)
						set.entries = append(set.entries, e)
					}
				}
			}
		}
	}
	return set
}

// match returns the annotation entry that suppresses analyzer name at one of
// the candidate (filename, line) pairs, or nil. Reasonless entries are
// skipped when the analyzer demands a justification, so the underlying
// finding resurfaces next to the "requires a justification" audit finding.
func (s *allowSet) match(name string, requireReason bool, cands []token.Position) *allowEntry {
	for _, p := range cands {
		for _, e := range s.byLine[p.Filename][p.Line] {
			if e.name != name {
				continue
			}
			if requireReason && e.reason == "" {
				continue
			}
			return e
		}
	}
	return nil
}

// candidateLines lists the positions an annotation may occupy to cover a
// finding at pos: the finding's own line, the line above it, and — when the
// finding sits inside a multi-line statement — the first line of that
// statement and the line above it. The last pair is what lets an annotation
// above a multi-line call cover a finding reported on one of the call's
// continuation lines.
func candidateLines(pkg *Package, pos token.Pos, p token.Position) []token.Position {
	lines := []int{p.Line, p.Line - 1}
	if sl := stmtStartLine(pkg, pos); sl > 0 && sl != p.Line {
		lines = append(lines, sl, sl-1)
	}
	out := make([]token.Position, 0, len(lines))
	seen := map[int]bool{}
	for _, l := range lines {
		if l > 0 && !seen[l] {
			seen[l] = true
			out = append(out, token.Position{Filename: p.Filename, Line: l})
		}
	}
	return out
}

// stmtStartLine returns the first line of the innermost statement containing
// pos, or 0 if pos is outside every statement (for example a declaration).
func stmtStartLine(pkg *Package, pos token.Pos) int {
	for _, f := range pkg.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		line := 0
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil || pos < n.Pos() || pos >= n.End() {
				return false
			}
			if _, ok := n.(ast.Stmt); ok {
				line = pkg.Fset.Position(n.Pos()).Line
			}
			return true
		})
		return line
	}
	return 0
}

// CalleeFunc resolves a call expression to the statically known function or
// method it invokes, or nil (builtin, conversion, or dynamic call through a
// function value).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// RecvNamed returns the package path and type name of a method's receiver
// (pointers dereferenced), or ok=false for package-level functions and
// methods on unnamed types.
func RecvNamed(fn *types.Func) (pkgPath, typeName string, ok bool) {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), true
}

// EffectivePath strips a leading `testdata/src/` segment (with or without a
// prefix path before it) from an import path, so fixture trees that mirror
// real package layouts under testdata/src are scoped like the packages they
// mirror (the analysistest convention).
func EffectivePath(path string) string {
	const marker = "/testdata/src/"
	if i := strings.LastIndex(path, marker); i >= 0 {
		return path[i+len(marker):]
	}
	// A fixture loaded under a relative path can start with the marker
	// directly ("testdata/src/kernel"); LastIndex cannot see it because the
	// leading slash is missing.
	if rest, ok := strings.CutPrefix(path, marker[1:]); ok {
		return rest
	}
	return path
}
