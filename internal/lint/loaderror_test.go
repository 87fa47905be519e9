package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"cdcreplay/internal/lint"
)

// TestLoadErrorsAreFindings pins the failure-is-visible contract: a
// package that fails to parse or typecheck becomes a loaderror finding
// (not a silent skip and not a fatal error), importers of a broken
// package are reported too, and healthy sibling packages are still
// analyzed.
func TestLoadErrorsAreFindings(t *testing.T) {
	cfg := lint.Config{Scopes: map[string][]string{"nodetermflow": {"good"}}}
	findings, err := lint.Run(filepath.Join("testdata", "src", "broken"), []string{"./..."}, lint.Analyzers(), cfg)
	if err != nil {
		t.Fatalf("Run returned a fatal error, want loaderror findings: %v", err)
	}

	byCheck := make(map[string][]lint.Finding)
	for _, f := range findings {
		byCheck[f.Check] = append(byCheck[f.Check], f)
	}

	loadErrs := byCheck[lint.LoadErrorCheck]
	if len(loadErrs) == 0 {
		t.Fatal("no loaderror findings for a module with broken packages")
	}
	var sawTypeErr, sawParseErr, sawCascade bool
	for _, f := range loadErrs {
		if f.File == "" {
			t.Errorf("loaderror finding without a file: %s", f)
		}
		switch {
		case strings.HasPrefix(f.File, "bad/"):
			sawTypeErr = true
		case strings.HasPrefix(f.File, "synbad/"):
			sawParseErr = true
		case strings.HasPrefix(f.File, "dep/"):
			sawCascade = true
		}
	}
	if !sawTypeErr {
		t.Error("type-check failure in bad/ not reported")
	}
	if !sawParseErr {
		t.Error("parse failure in synbad/ not reported")
	}
	if !sawCascade {
		t.Error("importer of a broken package (dep/) not reported")
	}

	// The healthy package was still analyzed.
	var sawGood bool
	for _, f := range byCheck["nodetermflow"] {
		if strings.HasPrefix(f.File, "good/") {
			sawGood = true
		}
	}
	if !sawGood {
		t.Errorf("healthy package good/ was not analyzed; findings: %v", findings)
	}
}
