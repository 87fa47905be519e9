package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"cdcreplay/internal/lint/callgraph"
)

// NodetermflowAnalyzer is cdclint's one determinism check. The CDC
// record's bytes are replayed bit-for-bit (PAPER.md §4: the reference
// order reconstructed at replay must equal the recorded one), and replay's
// release decision must depend on recorded clocks alone, so no function in
// the deterministic packages may read a nondeterminism source: wall-clock
// reads, math/rand's global state, order-leaking map iteration,
// goroutine-population probes. It reports every call or reference to a
// source function written directly in a scoped function or package-level
// initializer (a map range written there is maporder's finding), and, by
// propagating taint through the module call graph, every call edge by
// which a scoped function reaches any source through any depth of helper
// calls, in any package of the module.
//
// Sanctioned sources do not taint: a call that carries a reasoned
// //cdc:allow(nodetermflow), and a map range carrying
// //cdc:allow(maporder), are vouched deterministic-in-effect by their
// inventory reason, so paths through them are not findings. A chain
// finding's message embeds the full source→sink witness path.
var NodetermflowAnalyzer = &Analyzer{
	Name: "nodetermflow",
	Doc: "forbid wall-clock reads, math/rand, map order and goroutine " +
		"counts, directly or through helper chains, in the deterministic " +
		"encode/record/store/replay packages",
	Scope: []string{
		"internal/cdcformat",
		"internal/lpe",
		"internal/permdiff",
		"internal/varint",
		"internal/tables",
		"internal/lamport",
		"internal/core",
		"internal/feed",
		"internal/record",
		"internal/replay",
		"internal/store/...",
	},
	RunModule: runNodetermflow,
}

// nodetermflowSource describes an external function that samples
// nondeterministic state, or "" for anything else.
func nodetermflowSource(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	switch pkg.Path() {
	case "time":
		// Only sampling the clock is a hazard; Duration arithmetic and
		// constants are fine.
		if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
			return "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		// Only the package-level draw functions are nondeterministic:
		// they sample the process-global source, which Go seeds randomly.
		// Methods on an explicitly constructed *rand.Rand, and the
		// New/NewSource constructors themselves, are pure functions of
		// the caller's seed — if that seed comes from the wall clock, the
		// time.Now call is the source and is flagged on its own.
		if fn.Type().(*types.Signature).Recv() != nil {
			return ""
		}
		if fn.Name() == "New" || fn.Name() == "NewSource" || fn.Name() == "NewPCG" || fn.Name() == "NewChaCha8" || fn.Name() == "NewZipf" {
			return ""
		}
		return pkg.Name() + "." + fn.Name()
	case "os":
		if fn.Name() == "Getpid" {
			return "os.Getpid"
		}
	case "runtime":
		// Goroutine-population probes: the closest thing to a goroutine
		// ID the stdlib exposes, and just as schedule-dependent.
		if fn.Name() == "NumGoroutine" || fn.Name() == "Stack" {
			return "runtime." + fn.Name()
		}
	}
	return ""
}

// taintInfo records how a tainted function reaches its nondeterminism
// source: the human description, the source position, and the next edge
// along a shortest witness path (absent when the source is a map range in
// the function's own body).
type taintInfo struct {
	source  string
	srcPos  token.Pos
	next    callgraph.Edge
	hasNext bool
	dist    int
}

func runNodetermflow(p *ModulePass) {
	g := p.Graph
	taint := make(map[*callgraph.Node]taintInfo)
	var queue []*callgraph.Node
	seed := func(n *callgraph.Node, ti taintInfo) {
		if _, ok := taint[n]; ok {
			return
		}
		taint[n] = ti
		queue = append(queue, n)
	}

	// Seed 1: module functions that call an external nondeterminism
	// source without a sanctioning directive. Funcs() is sorted and
	// out-edges are in source order, so seeding is deterministic.
	for _, n := range g.Funcs() {
		if !n.Local() {
			continue
		}
		for _, e := range n.Out {
			if e.Callee.Local() {
				continue
			}
			desc := nodetermflowSource(e.Callee.Func)
			if desc == "" {
				continue
			}
			if p.AllowedAt(e.Site, p.Analyzer.Name) {
				continue
			}
			seed(n, taintInfo{source: desc, srcPos: e.Site, next: e, hasNext: true, dist: 1})
			break
		}
	}

	// Seed 2: module functions whose body ranges over a map in an
	// order-leaking way (same detector the intra-procedural maporder
	// uses) without a sanctioning directive.
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := g.Node(fn)
				if node == nil {
					continue
				}
				rangePos := leakyMapRange(p, pkg, fd.Body)
				if rangePos == token.NoPos {
					continue
				}
				seed(node, taintInfo{source: "map iteration order", srcPos: rangePos})
			}
		}
	}

	// Propagate taint to callers breadth-first; the first (shortest)
	// path to each function wins and becomes its witness.
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		ti := taint[n]
		for _, e := range n.In {
			caller := e.Caller
			if caller == nil || !caller.Local() {
				continue
			}
			if _, ok := taint[caller]; ok {
				continue
			}
			taint[caller] = taintInfo{
				source: ti.source, srcPos: ti.srcPos,
				next: e, hasNext: true, dist: ti.dist + 1,
			}
			queue = append(queue, caller)
		}
	}

	// Report, per sink-scope function: every site that reads a source
	// directly (two reads in one function are two findings; a sanctioned
	// one is suppressed with the rest), and the first call edge into each
	// tainted module-local callee.
	type repKey struct{ caller, callee *callgraph.Node }
	reported := make(map[repKey]bool)
	for _, n := range g.Funcs() {
		if !n.Local() || n.Pkg == nil || !p.InScope(n.Pkg.RelPath) {
			continue
		}
		for _, e := range n.Out {
			callee := e.Callee
			if !callee.Local() {
				reportDirectSource(p, e.Site, callee.Func, n.Pkg.RelPath)
				continue
			}
			if callee == n {
				continue
			}
			ti, ok := taint[callee]
			if !ok {
				continue
			}
			k := repKey{n, callee}
			if reported[k] {
				continue
			}
			reported[k] = true
			p.Reportf(e.Site,
				"call chain reaches nondeterminism source %s (%s): %s → %s; the recorded order must not depend on wall clock, randomness, or map order",
				ti.source, p.RelPosition(ti.srcPos), p.ShortName(n.Func), renderTaintPath(p, callee, taint))
		}
	}

	// Package-level var initializers run outside every function, so the
	// call graph holds no edge for them: check their direct reads here.
	for _, pkg := range p.ScopedPkgs() {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					ast.Inspect(gd, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
								reportDirectSource(p, id.Pos(), fn, pkg.RelPath)
							}
						}
						return true
					})
				}
			}
		}
	}
}

// reportDirectSource reports a call or reference to fn at site, in package
// relPath, when fn is a nondeterminism source. A sanctioning directive
// drops the finding with every other suppressed one.
func reportDirectSource(p *ModulePass, site token.Pos, fn *types.Func, relPath string) {
	if desc := nodetermflowSource(fn); desc != "" {
		p.Reportf(site,
			"%s in deterministic package %s: the recorded order and replay's release decision must not depend on wall clock, randomness, or goroutine counts",
			desc, relPath)
	}
}

// leakyMapRange returns the position of the first unsanctioned
// order-leaking map range in body, or NoPos.
func leakyMapRange(p *ModulePass, pkg *Package, body *ast.BlockStmt) token.Pos {
	pos := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pkg.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if maporderSink(pkg.Info, rng.Body) == "" {
			return true
		}
		if p.AllowedAt(rng.Pos(), MaporderAnalyzer.Name) || p.AllowedAt(rng.Pos(), p.Analyzer.Name) {
			return true
		}
		pos = rng.Pos()
		return false
	})
	return pos
}

// renderTaintPath walks the witness chain from a tainted node down to its
// source and renders it as "helper → deeper → time.Now".
func renderTaintPath(p *ModulePass, n *callgraph.Node, taint map[*callgraph.Node]taintInfo) string {
	var parts []string
	cur := n
	for range [32]struct{}{} {
		ti, ok := taint[cur]
		if !ok {
			break
		}
		parts = append(parts, p.ShortName(cur.Func))
		if !ti.hasNext {
			parts = append(parts, ti.source+" at "+p.RelPosition(ti.srcPos))
			break
		}
		next := ti.next.Callee
		if !next.Local() {
			parts = append(parts, ti.source)
			break
		}
		cur = next
	}
	return strings.Join(parts, " → ")
}
