package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, typechecked package.
type Package struct {
	// Path is the full import path; RelPath is relative to the module root
	// ("." for the root package).
	Path    string
	RelPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// findModuleRoot walks up from dir to the directory containing go.mod and
// returns that directory plus the declared module path.
func findModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadErrorCheck is the pseudo-check name under which packages that fail
// to parse or typecheck are reported. A broken package must be a finding
// (and a distinct exit status in the CLI), never a silent skip: an
// analyzer that did not see a package enforces nothing there.
const LoadErrorCheck = "loaderror"

// Load parses and typechecks the packages under the module rooted at root
// that match patterns ("./..." for all, "./dir/..." for a subtree, "./dir"
// or "dir" for one package). Test files and testdata/vendor/hidden
// directories are skipped: the invariants police shipping code, and
// external test packages would need a second typecheck universe.
//
// Packages that fail to parse or typecheck are excluded from the result
// and surfaced as LoadErrorCheck findings (positions relative to root)
// rather than aborting the whole run; packages that import a broken
// package cascade into their own load findings. The error return is
// reserved for infrastructure failures: no go.mod, unreadable
// directories, patterns matching nothing.
func Load(root string, patterns []string) ([]*Package, []Finding, error) {
	root, modPath, err := findModuleRoot(root)
	if err != nil {
		return nil, nil, err
	}
	ld := &loader{
		fset:    token.NewFileSet(),
		root:    root,
		modPath: modPath,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		broken:  make(map[string]bool),
	}
	ld.std = &stdImporter{fset: ld.fset, cache: make(map[string]*types.Package)}

	dirs, err := matchPatterns(root, patterns)
	if err != nil {
		return nil, nil, err
	}
	var out []*Package
	for _, rel := range dirs {
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + rel
		}
		pkg, err := ld.loadLocal(importPath)
		if err != nil {
			// loadLocal records the detailed findings itself; the error
			// only signals "do not analyze this package".
			continue
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	SortFindings(ld.findings)
	return out, ld.findings, nil
}

// matchPatterns expands CLI-style package patterns into sorted
// module-relative directories that contain non-test Go files.
func matchPatterns(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	set := make(map[string]bool)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" {
			pat = "."
		}
		if sub, ok := strings.CutSuffix(pat, "..."); ok {
			sub = strings.TrimSuffix(sub, "/")
			if sub == "" {
				sub = "."
			}
			base := filepath.Join(root, sub)
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					rel, err := filepath.Rel(root, path)
					if err != nil {
						return err
					}
					set[filepath.ToSlash(rel)] = true
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := filepath.Join(root, pat)
		if !hasGoFiles(dir) {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		set[filepath.ToSlash(rel)] = true
	}
	dirs := make([]string, 0, len(set))
	for d := range set { //cdc:allow(maporder) dirs are sorted immediately below
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// loader typechecks module-local packages from source, memoized by import
// path, resolving their imports recursively through itself (module-local)
// or the stdlib importer (everything else — go.mod is require-free, so
// everything else is the standard library).
type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
	// broken marks packages that failed to parse or typecheck; their
	// findings live in findings and importers of a broken package fail
	// in turn (cascading into their own load findings).
	broken   map[string]bool
	findings []Finding
}

// reportLoadError records one load failure as a finding. err may be a
// types.Error or scanner.ErrorList carrying positions; anything else is
// anchored at the package directory.
func (l *loader) reportLoadError(importPath string, pos token.Position, msg string) {
	file := pos.Filename
	if rel, err := filepath.Rel(l.root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	l.findings = append(l.findings, Finding{
		Check:   LoadErrorCheck,
		File:    file,
		Line:    pos.Line,
		Col:     pos.Column,
		Message: fmt.Sprintf("package %s failed to load: %s", importPath, msg),
	})
}

// Import implements types.Importer for the typechecker.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.loadLocal(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files in package %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// loadLocal parses and typechecks one module-local package. Returns
// (nil, nil) for directories with no non-test Go files; a package that
// fails to parse or typecheck is memoized as broken, its errors recorded
// as LoadErrorCheck findings, and a plain error returned so importers
// cascade instead of analyzing half-typed code.
func (l *loader) loadLocal(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.broken[importPath] {
		return nil, fmt.Errorf("lint: package %s failed to load", importPath)
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	rel := "."
	if importPath != l.modPath {
		rel = strings.TrimPrefix(importPath, l.modPath+"/")
	}
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			l.broken[importPath] = true
			l.reportLoadError(importPath, parseErrorPosition(err, dir, name), err.Error())
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		l.pkgs[importPath] = nil
		return nil, nil
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	// Collect every type error with its position instead of stopping at
	// the first: a broken package should read like a compiler run, capped
	// so one rotten file does not flood the report.
	var typeErrs []types.Error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if te, ok := err.(types.Error); ok {
				typeErrs = append(typeErrs, te)
			}
		},
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil || len(typeErrs) > 0 {
		l.broken[importPath] = true
		const maxErrs = 3
		for i, te := range typeErrs {
			if i == maxErrs {
				l.reportLoadError(importPath, l.fset.Position(te.Pos),
					fmt.Sprintf("... and %d more errors", len(typeErrs)-maxErrs))
				break
			}
			l.reportLoadError(importPath, l.fset.Position(te.Pos), te.Msg)
		}
		if len(typeErrs) == 0 {
			l.reportLoadError(importPath, token.Position{Filename: dir}, err.Error())
		}
		return nil, fmt.Errorf("lint: typecheck %s failed", importPath)
	}
	pkg := &Package{
		Path:    importPath,
		RelPath: rel,
		Dir:     dir,
		Fset:    l.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// parseErrorPosition extracts the first position from a parser error
// (scanner.ErrorList), falling back to the file itself.
func parseErrorPosition(err error, dir, name string) token.Position {
	if list, ok := err.(scanner.ErrorList); ok && len(list) > 0 {
		return list[0].Pos
	}
	return token.Position{Filename: filepath.Join(dir, name), Line: 1, Column: 1}
}

// stdImporter resolves standard-library packages: compiled export data
// first (fast), falling back to typechecking the stdlib from GOROOT source
// for toolchains that ship without installed .a files.
type stdImporter struct {
	fset  *token.FileSet
	gc    types.Importer
	src   types.Importer
	cache map[string]*types.Package
}

func (s *stdImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := s.cache[path]; ok {
		return pkg, nil
	}
	if s.gc == nil {
		s.gc = importer.ForCompiler(s.fset, "gc", nil)
	}
	pkg, err := s.gc.Import(path)
	if err != nil {
		if s.src == nil {
			s.src = importer.ForCompiler(s.fset, "source", nil)
		}
		pkg, err = s.src.Import(path)
		if err != nil {
			return nil, fmt.Errorf("lint: import %q: %w", path, err)
		}
	}
	s.cache[path] = pkg
	return pkg, nil
}
