// Package lint is cdcreplay's repo-specific static analyzer. It enforces
// the invariants CDC's replayable-clock proof rests on but the compiler
// cannot see: the encode/decode/replay paths must produce byte-identical
// reference order between record and replay, which means they must be free
// of wall-clock reads, unseeded randomness, map-iteration-order leakage,
// swallowed durable-path errors, unguarded instrument access, stray
// panics, lock-order cycles and leaked goroutines. Each invariant is one
// Analyzer; cmd/cdclint runs them over the module and exits non-zero on
// findings. Copied locks are go vet's copylocks check, not an analyzer
// here.
//
// The framework is deliberately zero-dependency: packages are loaded with
// go/parser and typechecked with go/types, resolving module-local imports
// from source and standard-library imports through go/importer. go.mod
// stays require-free.
//
// Intentional violations are suppressed in source with a directive that
// demands a reason:
//
//	//cdc:allow(<check>) <reason>
//
// placed on the offending line or the line directly above it. panic calls
// that assert internal invariants are tagged //cdc:invariant instead (see
// directive.go). DESIGN.md §10 documents every check and the directive
// grammar.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"cdcreplay/internal/lint/callgraph"
)

// Finding is one rule violation at a source position. File is relative to
// the module root so output is stable across checkouts.
type Finding struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// Analyzer is one invariant check. Scope lists the module-relative package
// paths it applies to ("internal/core", "internal/..." for a subtree, "..."
// for every package); a nil Scope means every package.
//
// Exactly one of Run and RunModule is set. Run is the intra-procedural
// mode: called once per in-scope package. RunModule is the whole-program
// mode: called once with every loaded package and the module call graph;
// for these analyzers Scope restricts where findings are *reported* (the
// sink side), while the analysis universe is the whole module.
type Analyzer struct {
	Name      string
	Doc       string
	Scope     []string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass hands one package to one analyzer and collects its findings.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// RelPath is the package path relative to the module root ("." for the
	// root package).
	RelPath string

	run      *run
	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.findings = append(p.findings, Finding{
		Check:   p.Analyzer.Name,
		File:    p.run.relFile(position.Filename),
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// ModulePass hands the whole loaded module to one interprocedural
// analyzer: every package, the CHA call graph, and the suppression
// directives (so an analyzer can treat a reasoned //cdc:allow as a
// sanctioned source rather than taint).
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	Graph    *callgraph.Graph

	scope    []string
	run      *run
	allowed  map[allowKey]bool
	findings []Finding
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.findings = append(p.findings, Finding{
		Check:   p.Analyzer.Name,
		File:    p.run.relFile(position.Filename),
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// InScope reports whether a module-relative package path is inside the
// analyzer's effective (possibly Config-overridden) scope.
func (p *ModulePass) InScope(relPath string) bool { return inScope(relPath, p.scope) }

// ScopedPkgs returns the loaded packages inside the effective scope.
func (p *ModulePass) ScopedPkgs() []*Package {
	var out []*Package
	for _, pkg := range p.Pkgs {
		if p.InScope(pkg.RelPath) {
			out = append(out, pkg)
		}
	}
	return out
}

// AllowedAt reports whether an //cdc:allow(check) directive covers pos
// (its own line or the line below, the same rule applySuppressions uses).
// Interprocedural analyzers use this to treat inventoried violations as
// sanctioned: a wall-clock read that carries a reasoned
// allow(nodetermflow) must not re-surface as a taint source three call
// frames later.
func (p *ModulePass) AllowedAt(pos token.Pos, check string) bool {
	position := p.Fset.Position(pos)
	return p.allowed[allowKey{p.run.relFile(position.Filename), position.Line, check}]
}

// Rel converts a position to its module-relative file path.
func (p *ModulePass) Rel(pos token.Pos) string {
	return p.run.relFile(p.Fset.Position(pos).Filename)
}

// RelPosition renders pos as "file:line" relative to the module root, the
// form findings embed when citing a second location (e.g. the source end
// of a taint path).
func (p *ModulePass) RelPosition(pos token.Pos) string {
	position := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.run.relFile(position.Filename), position.Line)
}

// ShortName renders a function's qualified name with the module-path
// prefix stripped: "(*internal/record.Recorder).flush" instead of the
// full import path, keeping taint paths readable.
func (p *ModulePass) ShortName(fn *types.Func) string {
	return strings.ReplaceAll(fn.FullName(), p.run.modPath+"/", "")
}

// PkgOf returns the loaded package a position belongs to, or nil.
func (p *ModulePass) PkgOf(pos token.Pos) *Package {
	file := p.Fset.Position(pos).Filename
	for _, pkg := range p.Pkgs {
		if strings.HasPrefix(file, pkg.Dir+"/") {
			return pkg
		}
	}
	return nil
}

// Config adjusts a Run. The zero value uses each analyzer's default scope.
type Config struct {
	// Scopes overrides the package scope per check name. Patterns are
	// module-relative package paths; "..." matches everything and a
	// trailing "/..." matches a subtree.
	Scopes map[string][]string
}

// Analyzers returns the full analyzer set in a fixed order: the four
// intra-procedural checks, then the three interprocedural checks built on
// the call graph.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MaporderAnalyzer,
		ErrsinkAnalyzer,
		ObsguardAnalyzer,
		PanicfreeAnalyzer,
		NodetermflowAnalyzer,
		LockorderAnalyzer,
		LeakcheckAnalyzer,
	}
}

// SelectAnalyzers resolves a comma-separated -check list against the full
// set; an empty list selects everything. Unknown names are an error, so a
// typo cannot silently disable enforcement.
func SelectAnalyzers(list string) ([]*Analyzer, error) {
	all := Analyzers()
	if strings.TrimSpace(list) == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	seen := make(map[string]bool)
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q (run -list for the set)", name)
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: -check selected no analyzers")
	}
	return out, nil
}

// CheckNames returns the names of every analyzer plus the directive
// pseudo-check, the vocabulary valid inside //cdc:allow(...).
func CheckNames() []string {
	names := []string{DirectiveCheck}
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// run carries state shared by every pass of one Run call.
type run struct {
	root    string
	modPath string
}

func (r *run) relFile(filename string) string {
	if rel, ok := strings.CutPrefix(filename, r.root+"/"); ok {
		return rel
	}
	return filename
}

// SortFindings orders findings by (file, line, col, check, message).
// The message tiebreak matters in multi-package runs: two findings from
// different analyzers (or CHA paths) can land on the same position, and
// without it the order would depend on package-load order — -json output
// and the self-check gate must be byte-stable instead.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
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
		return a.Message < b.Message
	})
}

// Run loads the packages matched by patterns under the module rooted at
// root, applies analyzers, filters suppressed findings, and returns the
// survivors sorted by position. Packages that fail to parse or typecheck
// surface as LoadErrorCheck findings (and are excluded from analysis);
// only infrastructure failures — no go.mod, nothing matched — abort with
// an error.
func Run(root string, patterns []string, analyzers []*Analyzer, cfg Config) ([]Finding, error) {
	root, modPath, err := findModuleRoot(root)
	if err != nil {
		return nil, err
	}
	pkgs, findings, err := Load(root, patterns)
	if err != nil {
		return nil, err
	}
	r := &run{root: root, modPath: modPath}

	// Directive validation is against the full registry, not the selected
	// subset: running `cdclint -check leakcheck` must not flag every
	// //cdc:allow(errsink) in the tree as naming an unknown check.
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}

	// Directives first: the interprocedural passes consult them while
	// analyzing (a sanctioned source must not taint), so they cannot be
	// folded into the per-package analyzer loop.
	var directives []Directive
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ds, bad := ParseDirectives(pkg.Fset, file, known)
			directives = append(directives, ds...)
			for _, f := range bad {
				f.File = r.relFile(f.File)
				findings = append(findings, f)
			}
		}
	}
	allowed := buildAllowed(directives, r)

	effectiveScope := func(a *Analyzer) []string {
		if s, ok := cfg.Scopes[a.Name]; ok {
			return s
		}
		return a.Scope
	}

	var moduleAnalyzers []*Analyzer
	for _, a := range analyzers {
		if a.RunModule != nil {
			moduleAnalyzers = append(moduleAnalyzers, a)
			continue
		}
		for _, pkg := range pkgs {
			if !inScope(pkg.RelPath, effectiveScope(a)) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				RelPath:  pkg.RelPath,
				run:      r,
			}
			a.Run(pass)
			findings = append(findings, pass.findings...)
		}
	}

	if len(moduleAnalyzers) > 0 && len(pkgs) > 0 {
		fset := pkgs[0].Fset
		cgPkgs := make([]*callgraph.Pkg, len(pkgs))
		for i, p := range pkgs {
			cgPkgs[i] = &callgraph.Pkg{
				Path: p.Path, RelPath: p.RelPath, Files: p.Files, Types: p.Types, Info: p.Info,
			}
		}
		graph := callgraph.Build(fset, cgPkgs)
		for _, a := range moduleAnalyzers {
			mp := &ModulePass{
				Analyzer: a,
				Fset:     fset,
				Pkgs:     pkgs,
				Graph:    graph,
				scope:    effectiveScope(a),
				run:      r,
				allowed:  allowed,
			}
			a.RunModule(mp)
			findings = append(findings, mp.findings...)
		}
	}

	findings = applySuppressions(findings, allowed)
	SortFindings(findings)
	return findings, nil
}

// inScope reports whether a module-relative package path matches any scope
// pattern. A nil scope matches everything.
func inScope(relPath string, scope []string) bool {
	if scope == nil {
		return true
	}
	for _, pat := range scope {
		if pat == "..." || pat == relPath {
			return true
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			if relPath == sub || strings.HasPrefix(relPath, sub+"/") {
				return true
			}
		}
	}
	return false
}

// typeIsNamed reports whether t (after pointer indirection) is the named
// type pkgName.typeName. Matching by package *name* rather than full path
// keeps the analyzers honest on the fixture corpus, which re-declares
// skeleton packages under its own module path.
func typeIsNamed(t types.Type, pkgName, typeName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Name() == pkgName && obj.Name() == typeName
}
