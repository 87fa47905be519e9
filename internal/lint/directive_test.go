package lint_test

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"cdcreplay/internal/lint"
)

func parseDirectives(t *testing.T, src string) ([]lint.Directive, []lint.Finding) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	known := map[string]bool{"nodetermflow": true, "errsink": true}
	return lint.ParseDirectives(fset, file, known)
}

func TestParseDirectivesValid(t *testing.T) {
	src := `package p

//cdc:allow(nodetermflow) telemetry only, never serialized
var a int

func f() {
	_ = a //cdc:allow(errsink) best-effort cleanup
	//cdc:invariant encoder guarantees this
	//cdc:invariant
}
`
	ds, bad := parseDirectives(t, src)
	if len(bad) != 0 {
		t.Fatalf("valid directives produced findings: %v", bad)
	}
	if len(ds) != 4 {
		t.Fatalf("got %d directives, want 4: %+v", len(ds), ds)
	}
	if ds[0].Kind != "allow" || ds[0].Check != "nodetermflow" || ds[0].Reason != "telemetry only, never serialized" || ds[0].Line != 3 {
		t.Errorf("directive 0 = %+v", ds[0])
	}
	if ds[1].Kind != "allow" || ds[1].Check != "errsink" || ds[1].Reason != "best-effort cleanup" || ds[1].Line != 7 {
		t.Errorf("directive 1 = %+v", ds[1])
	}
	if ds[2].Kind != "invariant" || ds[2].Reason != "encoder guarantees this" {
		t.Errorf("directive 2 = %+v", ds[2])
	}
	if ds[3].Kind != "invariant" || ds[3].Reason != "" {
		t.Errorf("directive 3 = %+v", ds[3])
	}
}

func TestParseDirectivesMalformed(t *testing.T) {
	cases := []struct {
		name    string
		comment string
		wantMsg string
	}{
		{"missing parens", "//cdc:allow nodetermflow because", "malformed //cdc:allow"},
		{"no close paren", "//cdc:allow(nodetermflow because", "malformed //cdc:allow"},
		{"missing reason", "//cdc:allow(nodetermflow)", "missing its reason"},
		{"blank reason", "//cdc:allow(errsink)   ", "missing its reason"},
		{"unknown check", "//cdc:allow(bogus) some reason", `unknown check "bogus"`},
		{"empty check", "//cdc:allow() some reason", `unknown check ""`},
		{"unknown verb", "//cdc:frobnicate", "unknown cdc directive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "package p\n\n" + tc.comment + "\nvar x int\n"
			ds, bad := parseDirectives(t, src)
			if len(ds) != 0 {
				t.Errorf("malformed directive parsed as valid: %+v", ds)
			}
			if len(bad) != 1 {
				t.Fatalf("got %d findings, want 1: %v", len(bad), bad)
			}
			if bad[0].Check != lint.DirectiveCheck {
				t.Errorf("finding check = %q, want %q", bad[0].Check, lint.DirectiveCheck)
			}
			if !strings.Contains(bad[0].Message, tc.wantMsg) {
				t.Errorf("finding %q does not mention %q", bad[0].Message, tc.wantMsg)
			}
			if bad[0].Line != 3 {
				t.Errorf("finding line = %d, want 3", bad[0].Line)
			}
		})
	}
}

// TestParseDirectivesIgnoresOrdinaryComments checks that non-cdc comments
// never parse as directives or findings.
func TestParseDirectivesIgnoresOrdinaryComments(t *testing.T) {
	src := `package p

// cdc:allow(nodetermflow) leading space means plain prose, not a directive
// just a comment mentioning time.Now
var x int
`
	ds, bad := parseDirectives(t, src)
	if len(ds) != 0 || len(bad) != 0 {
		t.Fatalf("ordinary comments parsed as directives: %+v %+v", ds, bad)
	}
}
