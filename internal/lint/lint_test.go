package lint_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"cdcreplay/internal/lint"
)

// fixtureConfig scopes each analyzer to its fixture package so the corpus
// packages don't trip one another's checks.
func fixtureConfig() lint.Config {
	return lint.Config{Scopes: map[string][]string{
		"maporder":  {"maporder"},
		"errsink":   {"errsink"},
		"obsguard":  {"obsguard", "obs"},
		"panicfree": {"panicfree"},
		// Interprocedural analyzers: scoped to their own fixture package;
		// helper packages (e.g. nodetermflow/ndhelp) stay outside every
		// scope so only call-graph reasoning can see into them.
		"nodetermflow": {"nodetermflow"},
		"lockorder":    {"lockorder"},
		"leakcheck":    {"leakcheck"},
	}}
}

func runFixtures(t *testing.T) []lint.Finding {
	t.Helper()
	findings, err := lint.Run(filepath.Join("testdata", "src", "fixture"), []string{"./..."}, lint.Analyzers(), fixtureConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return findings
}

// wantRe matches expectation markers in fixture files: `// want "substr"`,
// optionally with several quoted substrings.
var wantRe = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)

var quoteRe = regexp.MustCompile(`"([^"]*)"`)

type wantKey struct {
	file string
	line int
}

// loadWants scans the fixture tree for want markers keyed by file:line.
func loadWants(t *testing.T, root string) map[wantKey][]string {
	t.Helper()
	wants := make(map[wantKey][]string)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(lineText)
			if m == nil {
				continue
			}
			key := wantKey{filepath.ToSlash(rel), i + 1}
			for _, q := range quoteRe.FindAllStringSubmatch(m[1], -1) {
				wants[key] = append(wants[key], q[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("loadWants: %v", err)
	}
	return wants
}

// TestFixtureCorpus runs every analyzer over the golden fixture module and
// checks findings against the `// want` markers: every marker must be hit
// and no unmarked finding may appear (suppressed and negative cases carry
// no marker).
func TestFixtureCorpus(t *testing.T) {
	findings := runFixtures(t)
	if len(findings) == 0 {
		t.Fatal("fixture corpus produced no findings; cdclint must exit non-zero on it")
	}
	wants := loadWants(t, filepath.Join("testdata", "src", "fixture"))
	if len(wants) == 0 {
		t.Fatal("no want markers found in fixtures")
	}

	for _, f := range findings {
		if f.File == "" || f.Line == 0 {
			t.Errorf("finding without file:line position: %+v", f)
			continue
		}
		key := wantKey{f.File, f.Line}
		matched := -1
		for i, substr := range wants[key] {
			if strings.Contains(f.Message, substr) || strings.Contains(f.Check, substr) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
		if len(wants[key]) == 0 {
			delete(wants, key)
		}
	}
	for key, substrs := range wants {
		for _, s := range substrs {
			t.Errorf("expected finding at %s:%d matching %q, got none", key.file, key.line, s)
		}
	}
}

// TestFindingsDeterministicOrder pins satellite invariant: Run's output is
// byte-stable regardless of package-load order, because findings are
// sorted by (file, line, col, check, message) — repeated runs must agree
// exactly.
func TestFindingsDeterministicOrder(t *testing.T) {
	first := runFixtures(t)
	if !sort.SliceIsSorted(first, func(i, j int) bool {
		a, b := first[i], first[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message <= b.Message
	}) {
		t.Error("findings are not in (file, line, col, check, message) order")
	}
	for run := 0; run < 3; run++ {
		again := runFixtures(t)
		if len(again) != len(first) {
			t.Fatalf("run %d produced %d findings, first run %d", run, len(again), len(first))
		}
		for i := range again {
			if again[i] != first[i] {
				t.Fatalf("run %d finding %d differs: %v != %v", run, i, again[i], first[i])
			}
		}
	}
}

// TestFixtureFindingsFormat pins the human-readable rendering: file:line:col
// prefix plus the check tag, which is what CI logs and editors parse.
func TestFixtureFindingsFormat(t *testing.T) {
	findings := runFixtures(t)
	lineRe := regexp.MustCompile(`^[^:]+\.go:\d+:\d+: \[[a-z]+\] .+`)
	for _, f := range findings {
		if !lineRe.MatchString(f.String()) {
			t.Errorf("finding does not render as file:line:col: [check] message: %q", f.String())
		}
	}
}

// TestObsguardCitesFirstRegistrationRelative: the duplicate-registration
// finding cites the first registration module-relative, like every finding
// position, so -json output is the same from every checkout.
func TestObsguardCitesFirstRegistrationRelative(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	var dups int
	for _, f := range runFixtures(t) {
		if f.Check != "obsguard" || !strings.Contains(f.Message, "duplicate registration") {
			continue
		}
		dups++
		if strings.Contains(f.Message, root) || !strings.Contains(f.Message, "first registered at obsguard/obsguard.go:15:") {
			t.Errorf("%s: first registration not cited module-relative: %q", f.File, f.Message)
		}
	}
	if dups != 1 {
		t.Fatalf("%d duplicate-registration findings in the fixture, want 1", dups)
	}
}

// TestReportJSON pins the -json envelope: {count, findings}, findings
// always an array.
func TestReportJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, nil); err != nil {
		t.Fatalf("WriteJSON(nil): %v", err)
	}
	var empty struct {
		Count    int            `json:"count"`
		Findings []lint.Finding `json:"findings"`
	}
	if err := json.Unmarshal(buf.Bytes(), &empty); err != nil {
		t.Fatalf("unmarshal empty report: %v", err)
	}
	if empty.Count != 0 || empty.Findings == nil || len(empty.Findings) != 0 {
		t.Fatalf("empty report = %+v, want count 0 and empty (non-null) findings", empty)
	}

	findings := runFixtures(t)
	buf.Reset()
	if err := lint.WriteJSON(&buf, findings); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var got struct {
		Count    int            `json:"count"`
		Findings []lint.Finding `json:"findings"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("unmarshal report: %v", err)
	}
	if got.Count != len(findings) || len(got.Findings) != len(findings) {
		t.Fatalf("report count %d/%d, want %d", got.Count, len(got.Findings), len(findings))
	}
	if got.Findings[0] != findings[0] {
		t.Fatalf("JSON round-trip changed finding: %+v != %+v", got.Findings[0], findings[0])
	}
}

// TestScopeRestriction checks that an analyzer scoped away from a package
// reports nothing there even when violations exist.
func TestScopeRestriction(t *testing.T) {
	cfg := fixtureConfig()
	cfg.Scopes["nodetermflow"] = []string{"maporder"} // nodetermflow fixture now out of scope
	findings, err := lint.Run(filepath.Join("testdata", "src", "fixture"), []string{"./..."}, lint.Analyzers(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		if f.Check == "nodetermflow" {
			t.Errorf("nodetermflow finding outside its scope: %s", f)
		}
	}
}
