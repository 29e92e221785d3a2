package main_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"easycrash/internal/analysis"
	"easycrash/internal/analysis/suite"
)

// eclint is the binary the smoke tests run, built once by TestMain.
var eclint string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "eclint-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	eclint = filepath.Join(dir, "eclint")
	out, err := exec.Command("go", "build", "-o", eclint, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "building eclint: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// badFixture is the deliberately broken kernel every surviving analyzer
// fires on.
const badFixture = "./testdata/src/easycrash/internal/apps/badkernel"

// analyzers are the names suite.All registers.
var analyzers = []string{"campaigndet", "persistorder"}

// moduleRoot returns the module's root directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestSmokeBadFixture runs eclint against the deliberately broken fixture and
// expects exit code 1 with exactly one finding from every analyzer.
func TestSmokeBadFixture(t *testing.T) {
	out, err := exec.Command(eclint, badFixture).CombinedOutput()
	if err == nil {
		t.Fatalf("eclint exited 0 on the bad fixture; output:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("eclint on the bad fixture: want exit code 1, got %v\n%s", err, out)
	}
	for _, name := range analyzers {
		if n := strings.Count(string(out), "("+name+")"); n != 1 {
			t.Errorf("%d %s findings in eclint output, want 1:\n%s", n, name, out)
		}
	}
	if want := fmt.Sprintf("eclint: %d finding(s)", len(analyzers)); !strings.Contains(string(out), want) {
		t.Errorf("eclint output lacks %q:\n%s", want, out)
	}
}

// TestCleanTree runs the suite over the whole module in process and expects
// no unsuppressed finding. In process, the parser's file opens enter the
// test's cache key, so an edit anywhere in the tree re-runs it; reading each
// package directory does the same for an added file.
func TestCleanTree(t *testing.T) {
	pkgs, err := analysis.LoadPatterns(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if _, err := os.ReadDir(pkg.Dir); err != nil {
			t.Fatal(err)
		}
		findings, err := analysis.RunAnalyzers(pkg, suite.All())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			if !f.Suppressed {
				t.Errorf("%s", f)
			}
		}
	}
}

// TestListFlag checks the -list inventory names every analyzer and nothing
// else.
func TestListFlag(t *testing.T) {
	out, err := exec.Command(eclint, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("eclint -list: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != len(analyzers) {
		t.Errorf("eclint -list printed %d analyzers, want %d:\n%s", len(lines), len(analyzers), out)
	}
	for _, name := range analyzers {
		if !strings.Contains(string(out), name) {
			t.Errorf("eclint -list missing %s:\n%s", name, out)
		}
	}
}

// TestJSONOutput pins the machine-readable mode: -json on the bad fixture
// still exits 1 but emits a parseable array covering every analyzer, and on
// the real pmemkv package it exposes the suppressed deliberate-bug finding
// with its allow reason — the hook CI's static↔dynamic cross-check hangs on.
func TestJSONOutput(t *testing.T) {
	out, err := exec.Command(eclint, "-json", badFixture).Output()
	if err == nil {
		t.Fatalf("eclint -json exited 0 on the bad fixture")
	}
	var findings []analysis.FindingJSON
	if jsonErr := json.Unmarshal(out, &findings); jsonErr != nil {
		t.Fatalf("eclint -json output is not a findings array: %v\n%s", jsonErr, out)
	}
	byAnalyzer := map[string]int{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
		if f.Suppressed {
			t.Errorf("bad fixture carries no allows, but finding is suppressed: %+v", f)
		}
	}
	for _, name := range analyzers {
		if byAnalyzer[name] == 0 {
			t.Errorf("no %s finding in -json output:\n%s", name, out)
		}
	}

	cmd := exec.Command(eclint, "-json", "./internal/pmemkv/")
	cmd.Dir = moduleRoot(t)
	out, err = cmd.Output()
	if err != nil {
		t.Fatalf("eclint -json ./internal/pmemkv/ failed: %v\n%s", err, out)
	}
	if jsonErr := json.Unmarshal(out, &findings); jsonErr != nil {
		t.Fatalf("parsing pmemkv findings: %v\n%s", jsonErr, out)
	}
	suppressed := 0
	for _, f := range findings {
		if f.Analyzer == "persistorder" && f.Suppressed && strings.Contains(f.AllowReason, "pmemkv-bug") {
			suppressed++
		}
	}
	if suppressed != 1 {
		t.Errorf("want exactly 1 suppressed persistorder finding on pmemkv in -json output, got %d:\n%s", suppressed, out)
	}
}

// TestBaselineFlag pins the diff contract end to end: freezing the bad
// fixture's findings with -json and replaying them through -baseline turns
// the failing run clean.
func TestBaselineFlag(t *testing.T) {
	out, err := exec.Command(eclint, "-json", badFixture).Output()
	if err == nil {
		t.Fatalf("eclint -json exited 0 on the bad fixture")
	}
	baseline := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(baseline, out, 0o644); err != nil {
		t.Fatalf("writing baseline: %v", err)
	}

	got, err := exec.Command(eclint, "-baseline", baseline, badFixture).CombinedOutput()
	if err != nil {
		t.Fatalf("eclint -baseline must tolerate baselined findings: %v\n%s", err, got)
	}
	if len(strings.TrimSpace(string(got))) != 0 {
		t.Errorf("baselined run still printed findings:\n%s", got)
	}
}
