// Command cdclint runs cdcreplay's repo-specific static analyzers over the
// module and exits non-zero on findings. It enforces the determinism and
// safety invariants DESIGN.md §10 and §15 document: no wall-clock,
// randomness or map-order read, direct or through helpers, in the
// record/replay packages (nodetermflow), no map-iteration order leaking
// into serialized bytes (maporder), no swallowed storage errors
// (errsink), guarded obs instruments (obsguard), no library panics
// (panicfree), no lock-acquisition cycles across the call graph
// (lockorder), and no unstoppable goroutines or undrained channels
// (leakcheck). Copied locks are go vet's copylocks check.
//
// Usage:
//
//	cdclint [-json] [-list] [-check a,b] [packages...]
//
// Packages default to ./... resolved against the enclosing module.
// Every finding fails the run; a //cdc:allow(<check>) <reason> directive
// at the site is the only way to suppress one.
//
// Exit status: 0 clean, 1 findings, 2 usage error or packages that failed
// to load/typecheck. Load failures are reported as findings (check
// "loaderror") but drive exit 2, so "the analyzer did not see this
// package" never reads as "this package is clean".
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"cdcreplay/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command against the working directory: it parses
// args, reports to stdout (diagnostics to stderr) and returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cdclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON ({count, findings})")
	list := fs.Bool("list", false, "list the analyzers and exit")
	checks := fs.String("check", "", "comma-separated subset of checks to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: cdclint [-json] [-list] [-check a,b] [packages...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	analyzers, err := lint.SelectAnalyzers(*checks)
	if err != nil {
		return fail(stderr, err)
	}

	if *list {
		for _, a := range analyzers {
			kind := "package"
			if a.RunModule != nil {
				kind = "module"
			}
			fmt.Fprintf(stdout, "%-12s [%s] %s\n", a.Name, kind, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fail(stderr, err)
	}
	findings, err := lint.Run(cwd, fs.Args(), analyzers, lint.Config{})
	if err != nil {
		return fail(stderr, err)
	}

	if *jsonOut {
		err = lint.WriteJSON(stdout, findings)
	} else {
		err = lint.WriteText(stdout, findings)
	}
	if err != nil {
		return fail(stderr, err)
	}

	for _, f := range findings {
		if f.Check == lint.LoadErrorCheck {
			return 2
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "cdclint:", err)
	return 2
}
