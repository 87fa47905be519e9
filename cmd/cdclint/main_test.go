package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runIn runs the command with dir as the working directory and returns
// its exit status and stdout.
func runIn(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return code, stdout.String()
}

// TestExitStatus pins cdclint's exit contract: any finding fails the run
// with 1 (nothing can be grandfathered), a package that fails to load
// fails it with 2, and a clean package passes with 0.
func TestExitStatus(t *testing.T) {
	src := filepath.Join("..", "..", "internal", "lint", "testdata", "src")
	cases := []struct {
		name string
		dir  string
		args []string
		code int
		want string // substring of stdout
	}{
		{"finding", filepath.Join(src, "fixture"), []string{"./..."}, 1, "[panicfree] panic in library package"},
		{"finding json", filepath.Join(src, "fixture"), []string{"-json", "./panicfree"}, 1, `"count": 1`},
		{"load error", filepath.Join(src, "broken"), []string{"./..."}, 2, "[loaderror]"},
		{"clean", filepath.Join(src, "broken"), []string{"./good"}, 0, ""},
		{"unknown check", ".", []string{"-check", "nosuch", "./cmd/cdclint"}, 2, ""},
		{"unknown flag", ".", []string{"-baseline", "none", "./cmd/cdclint"}, 2, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := runIn(t, tc.dir, tc.args...)
			if code != tc.code {
				t.Errorf("exit status = %d, want %d\nstdout:\n%s", code, tc.code, out)
			}
			if tc.want != "" && !strings.Contains(out, tc.want) {
				t.Errorf("stdout lacks %q:\n%s", tc.want, out)
			}
			if tc.want == "" && out != "" {
				t.Errorf("stdout = %q, want empty", out)
			}
		})
	}
}
