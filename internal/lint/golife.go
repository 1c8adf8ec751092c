package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerGoLife enforces goroutine lifecycle discipline: every `go`
// statement in the scoped packages must have a visible termination
// story. A spawned function literal complies when its body consults a
// context (any context.Context reference covers ctx.Done() selects and
// passing ctx into a blocking callee), receives from or ranges over a
// channel (quit/work channels close to terminate it), or participates in
// a sync.WaitGroup (Done in the body, Wait on behalf of others, or an
// Add(..) on the spawn site's preceding line). A named call complies
// when a context flows in as an argument. Anything else — the
// fire-and-forget goroutine that outlives the drain path — needs an
// audited //llmfi:allow golife. This pins the property the serve drain
// and fabric shutdown paths depend on: SIGINT reaches a quiescent
// process, not one still running leaked workers (DESIGN.md §13/§14).
var AnalyzerGoLife = &Analyzer{
	Name: "golife",
	Doc:  "goroutines must consult ctx/a quit channel or be WaitGroup-tracked",
	Scope: []string{
		"internal/core", "internal/serve", "internal/serve/loadgen",
		"internal/fabric", "internal/obs", "internal/report",
		"internal/experiments", "internal/tensor", "internal/model", "cmd/llmfi",
	},
	Run: runGoLife,
}

func runGoLife(pass *Pass) {
	forEachFunc(pass.Package, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BlockStmt:
				checkGoLifeBlock(pass, x.List)
			case *ast.CaseClause:
				checkGoLifeBlock(pass, x.Body)
			case *ast.CommClause:
				checkGoLifeBlock(pass, x.Body)
			}
			return true
		})
	})
}

// checkGoLifeBlock checks the go statements of one statement list, so
// the wg.Add-on-the-previous-line pattern is visible.
func checkGoLifeBlock(pass *Pass, list []ast.Stmt) {
	for i, s := range list {
		gs, ok := s.(*ast.GoStmt)
		if !ok {
			continue
		}
		if i > 0 && isWaitGroupAdd(pass, list[i-1]) {
			continue
		}
		checkGoStmt(pass, gs)
	}
}

// isWaitGroupAdd reports whether s is a wg.Add(...) call on a
// sync.WaitGroup.
func isWaitGroupAdd(pass *Pass, s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	name, recv := methodCall(call)
	return name == "Add" && typeNamed(pass.typeOf(recv), "WaitGroup")
}

func checkGoStmt(pass *Pass, gs *ast.GoStmt) {
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		if compliantGoBody(pass, lit) {
			return
		}
		pass.Reportf(gs.Pos(), "goroutine has no termination story: consult ctx.Done()/a quit channel, track it with a sync.WaitGroup, or annotate //llmfi:allow golife")
		return
	}
	// Named call: a context argument hands the callee its lifetime.
	for _, a := range gs.Call.Args {
		if isContextType(pass.typeOf(a)) {
			return
		}
	}
	pass.Reportf(gs.Pos(), "goroutine calls %s without a context argument: pass a ctx, or annotate //llmfi:allow golife", callName(gs.Call))
}

func callName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return "a function"
}

// compliantGoBody reports whether the literal's body has a recognized
// termination story.
func compliantGoBody(pass *Pass, lit *ast.FuncLit) bool {
	ok := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if isContextType(pass.typeOf(x)) {
				ok = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				ok = true // channel receive: a close terminates the loop
			}
		case *ast.RangeStmt:
			if isChanType(pass.typeOf(x.X)) {
				ok = true // ranging a work channel: close terminates it
			}
		case *ast.CallExpr:
			name, recv := methodCall(x)
			if (name == "Done" || name == "Wait") && typeNamed(pass.typeOf(recv), "WaitGroup") {
				ok = true
			}
		}
		return !ok
	})
	return ok
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
