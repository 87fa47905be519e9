package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ObsguardAnalyzer enforces the two obs contracts from DESIGN.md §8.
//
// First, inside the obs package itself: every exported pointer-receiver
// method on an exported instrument type must check its receiver against
// nil before touching any field. The entire "instrumentation is free when
// disabled" design hands nil instruments to every pipeline layer and
// relies on each method being a one-pointer-check no-op; one unguarded
// method turns the disabled state into a crash on the hot path.
//
// Second, everywhere: registering the same instrument name twice in one
// function (two Registry.Counter/Gauge/Histogram calls with the same
// literal) silently aliases two conceptually distinct instruments into
// one, double-counting whichever is touched — almost always a copy-paste
// slip in a constructor.
var ObsguardAnalyzer = &Analyzer{
	Name: "obsguard",
	Doc: "require nil-receiver guards on obs instrument methods and flag " +
		"duplicate instrument-name registration",
	Run: runObsguard,
}

// obsRegistryMethods are the Registry accessors that create-or-fetch a
// named instrument.
var obsRegistryMethods = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
}

func runObsguard(pass *Pass) {
	inObs := pass.Pkg.Name() == "obs"
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if inObs {
				checkNilGuard(pass, fn)
			}
			checkDuplicateNames(pass, fn)
		}
	}
}

// checkNilGuard flags an exported pointer-receiver method on an exported
// type whose body dereferences the receiver before (or without) comparing
// it to nil.
func checkNilGuard(pass *Pass, fn *ast.FuncDecl) {
	if !fn.Name.IsExported() || fn.Recv == nil || len(fn.Recv.List) != 1 {
		return
	}
	recv := fn.Recv.List[0]
	star, ok := recv.Type.(*ast.StarExpr)
	if !ok {
		return
	}
	typeName, ok := star.X.(*ast.Ident)
	if !ok || !typeName.IsExported() {
		return
	}
	if len(recv.Names) != 1 {
		return
	}
	recvObj := pass.Info.Defs[recv.Names[0]]
	if recvObj == nil {
		return
	}

	guardPos := token.NoPos
	derefPos := token.NoPos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			if (isRecvIdent(pass, n.X, recvObj) && isNilIdent(pass, n.Y)) ||
				(isRecvIdent(pass, n.Y, recvObj) && isNilIdent(pass, n.X)) {
				if !guardPos.IsValid() {
					guardPos = n.Pos()
				}
				return false
			}
		case *ast.SelectorExpr:
			if isRecvIdent(pass, n.X, recvObj) && !derefPos.IsValid() {
				derefPos = n.Pos()
			}
		}
		return true
	})
	if derefPos.IsValid() && (!guardPos.IsValid() || guardPos > derefPos) {
		pass.Reportf(fn.Name.Pos(),
			"exported method (*%s).%s touches its receiver without a nil guard: obs instruments must be no-ops when nil (DESIGN.md §8)",
			typeName.Name, fn.Name.Name)
	}
}

func isRecvIdent(pass *Pass, e ast.Expr, recvObj types.Object) bool {
	id, ok := e.(*ast.Ident)
	return ok && pass.Info.Uses[id] == recvObj
}

func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.Info.Uses[id].(*types.Nil)
	return isNil
}

// checkDuplicateNames flags two registrations of the same literal
// instrument name through the same Registry accessor within one function.
func checkDuplicateNames(pass *Pass, fn *ast.FuncDecl) {
	seen := make(map[string]token.Pos)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !obsRegistryMethods[sel.Sel.Name] || len(call.Args) == 0 {
			return true
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || !typeIsNamed(selection.Recv(), "obs", "Registry") {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		key := sel.Sel.Name + "/" + lit.Value
		if prev, dup := seen[key]; dup {
			first := pass.Fset.Position(prev)
			pass.Reportf(call.Pos(),
				"duplicate registration of instrument %s via %s (first registered at %s:%d:%d): two call sites now share one instrument",
				lit.Value, sel.Sel.Name, pass.run.relFile(first.Filename), first.Line, first.Column)
		} else {
			seen[key] = call.Pos()
		}
		return true
	})
}
