// Command eclint runs the EasyCrash static-analysis suite over Go package
// patterns and reports violations of the simulation invariants: raw mem.Image
// access that bypasses the cache hierarchy (directmem), nondeterminism in
// campaign code (campaigndet), and durable writes reaching a commit mark or
// acknowledgement without a fenced flush (persistorder). Each analyzer's
// package doc names the planted bug that earns it its place (DESIGN.md keeps
// the mutant table); region and iteration marker pairing is not a lint but a
// run-time contract of sim.Machine.
//
// Usage:
//
//	eclint [-list] [-json] [-baseline file] [packages]
//
// With no arguments it analyzes ./... . It exits 1 if any unsuppressed,
// unbaselined finding is reported and 0 on a clean tree; findings are
// suppressed with //eclint:allow <analyzer> annotations (see
// internal/analysis). Stale annotations that suppress nothing are themselves
// findings.
//
// -json emits every finding — suppressed ones included, with their allow
// reasons — as a JSON array of stable DTOs, so CI can assert not only that
// the tree is clean but that a deliberate, annotated violation is still being
// caught. -baseline diffs unsuppressed findings against a checked-in
// baseline file (same JSON format): known findings are reported but do not
// fail the run, new ones do.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"easycrash/internal/analysis"
	"easycrash/internal/analysis/suite"
)

func main() {
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit all findings (suppressed included) as a JSON array")
	baselinePath := flag.String("baseline", "", "JSON baseline `file`; findings recorded there are reported but do not fail the run")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: eclint [-list] [-json] [-baseline file] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzes the given Go package patterns (default ./...) and exits 1\non any finding not suppressed by an //eclint:allow annotation and not\nrecorded in the baseline.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := suite.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatalf("eclint: %v", err)
	}
	var baseline analysis.Baseline
	if *baselinePath != "" {
		baseline, err = analysis.LoadBaseline(*baselinePath)
		if err != nil {
			fatalf("%v", err)
		}
	}
	pkgs, err := analysis.LoadPatterns(cwd, patterns...)
	if err != nil {
		fatalf("%v", err)
	}

	var all []analysis.FindingJSON
	failing := 0
	for _, pkg := range pkgs {
		findings, err := analysis.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fatalf("%v", err)
		}
		for _, f := range findings {
			j := f.JSON(cwd)
			j.Baselined = !f.Suppressed && baseline.Has(j)
			all = append(all, j)
			if f.Suppressed || j.Baselined {
				continue
			}
			failing++
			if !*jsonOut {
				fmt.Println(relativize(cwd, f))
			}
		}
	}
	if *jsonOut {
		if err := analysis.WriteFindingsJSON(os.Stdout, all); err != nil {
			fatalf("eclint: %v", err)
		}
	}
	if failing > 0 {
		fmt.Fprintf(os.Stderr, "eclint: %d finding(s)\n", failing)
		os.Exit(1)
	}
}

// relativize rewrites a finding's file name relative to the working
// directory, keeping CI and editor output clickable.
func relativize(cwd string, f analysis.Finding) string {
	if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		f.Pos.Filename = rel
	}
	return f.String()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
