package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// modelStateTypes are the named types whose reachable memory belongs to
// the model: a store through any of them from inside a hook would let an
// observer perturb the computation it observes. Batch and DecodeRow are
// the continuous-batching decode state, and Loop and Seq the decode loop
// (gen.Loop) that owns them: a hook runs on behalf of one row, so writing
// through any of them would perturb co-scheduled trials.
var modelStateTypes = []string{"Model", "Block", "MLPWeights", "Tensor", "Dense", "Weight", "Batch", "DecodeRow", "Loop", "Seq"}

// AnalyzerHookPurity enforces the "observational by construction"
// contract of forward hooks and linear checkers: a hook may read layer
// outputs and mutate its own output row (that is how fault injection and
// mitigation work), but a store that reaches model-owned memory — weight
// tensors, blocks, the model struct — is a finding, as is a checker
// writing to its input activation row. PR 4's golden-equivalence tests
// catch such violations after the fact; this catches them at review.
var AnalyzerHookPurity = &Analyzer{
	Name: "hookpurity",
	Doc:  "hooks and checkers may write only their own output row, never model-reachable state",
	Run:  runHookPurity,
}

func runHookPurity(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				if p.isHookSignature(n.Type) {
					p.checkHookBody(n.Body, p.hookParams(n.Type, 2, -1))
					return false
				}
				if n.Name.Name == "CheckLinear" && p.isCheckerSignature(n.Type) {
					p.checkHookBody(n.Body, p.hookParams(n.Type, 4, 3))
					return false
				}
			case *ast.FuncLit:
				if p.isHookSignature(n.Type) {
					p.checkHookBody(n.Body, p.hookParams(n.Type, 2, -1))
					return false
				}
			}
			return true
		})
	}
}

// hookCtx carries the parameter objects the purity rules special-case:
// out may be written (in place is the injection/mitigation mechanism),
// in must not be.
type hookCtx struct {
	out types.Object
	in  types.Object
}

// hookParams resolves the out (and for checkers, in) parameter objects.
func (p *Pass) hookParams(ft *ast.FuncType, outIdx, inIdx int) hookCtx {
	objs := p.paramObjs(ft)
	var hc hookCtx
	if outIdx >= 0 && outIdx < len(objs) {
		hc.out = objs[outIdx]
	}
	if inIdx >= 0 && inIdx < len(objs) {
		hc.in = objs[inIdx]
	}
	return hc
}

// isHookSignature matches model.Hook: func(LayerRef, int, []float32).
func (p *Pass) isHookSignature(ft *ast.FuncType) bool {
	if ft.Results != nil && len(ft.Results.List) > 0 {
		return false
	}
	params := p.sigParamTypes(ft)
	return len(params) == 3 &&
		typeNamed(params[0], "LayerRef") &&
		basicKind(params[1]) == types.Int &&
		isSliceOf(params[2], types.Float32)
}

// isCheckerSignature matches model.LinearChecker.CheckLinear:
// func(LayerRef, Weight, pos []int, in, out []float32).
func (p *Pass) isCheckerSignature(ft *ast.FuncType) bool {
	params := p.sigParamTypes(ft)
	return len(params) == 5 &&
		typeNamed(params[0], "LayerRef") &&
		isSliceOf(params[2], types.Int) &&
		isSliceOf(params[3], types.Float32) &&
		isSliceOf(params[4], types.Float32)
}

// checkHookBody walks one hook/checker body for impure stores.
func (p *Pass) checkHookBody(body *ast.BlockStmt, hc hookCtx) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				p.checkHookWrite(lhs, hc)
			}
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					p.checkHookAlias(n.Lhs[i], rhs, hc)
				}
			}
		case *ast.IncDecStmt:
			p.checkHookWrite(n.X, hc)
		case *ast.SendStmt:
			if name, ok := p.rowAlias(n.Value, hc); ok {
				p.Reportf(n.Value.Pos(), "hook sends an alias of its %s row on a channel: copy the data first — a retained alias lets later forward passes mutate the recorded observation", name)
			}
		case *ast.CallExpr:
			p.checkHookCall(n)
		}
		return true
	})
}

// checkHookAlias flags a store that smuggles an alias of the hook's
// activation row (out, or a checker's in) into memory that outlives the
// call — a struct field, map/slice element, or pointer target. Span
// attributes and telemetry records built inside hooks are the motivating
// case: the recorded "observation" would silently change when a later
// forward pass reuses the row's backing array. Copying the data
// (append([]float32(nil), out...)) is always legal.
func (p *Pass) checkHookAlias(lhs, rhs ast.Expr, hc hookCtx) {
	name, ok := p.rowAlias(rhs, hc)
	if !ok || !escapingTarget(lhs) {
		return
	}
	p.Reportf(rhs.Pos(), "hook stores an alias of its %s row into escaping state: copy the data (append([]float32(nil), row...)) — a retained alias lets later forward passes mutate the recorded observation", name)
}

// rowAlias reports whether e evaluates to something sharing the backing
// array of the hook's out (or checker's in) parameter: the bare ident, a
// reslice of it, a composite literal or append retaining one, or its
// address. Element reads (out[i], float copies) and spreads
// (append(dst, out...) copies float32 values) are not aliases.
func (p *Pass) rowAlias(e ast.Expr, hc hookCtx) (string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		obj := p.objOf(x)
		if obj == nil {
			return "", false
		}
		if obj == hc.out {
			return "output", true
		}
		if hc.in != nil && obj == hc.in {
			return "input", true
		}
	case *ast.ParenExpr:
		return p.rowAlias(x.X, hc)
	case *ast.SliceExpr:
		return p.rowAlias(x.X, hc)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return p.rowAlias(x.X, hc)
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if name, ok := p.rowAlias(el, hc); ok {
				return name, true
			}
		}
	case *ast.CallExpr:
		// append(dst, row) retains the slice header; append(dst, row...)
		// copies float32 elements and is the sanctioned escape hatch.
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" && x.Ellipsis == token.NoPos {
			for _, arg := range x.Args[1:] {
				if name, ok := p.rowAlias(arg, hc); ok {
					return name, true
				}
			}
		}
	}
	return "", false
}

// escapingTarget reports whether a store target outlives the hook call:
// a field, element, or pointer dereference. A plain local (row := out)
// stays in the frame and is the idiomatic way to name the row.
func escapingTarget(lhs ast.Expr) bool {
	switch x := lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.ParenExpr:
		return escapingTarget(x.X)
	}
	return false
}

// checkHookWrite flags a store whose target is model-reachable or the
// checker's input row.
func (p *Pass) checkHookWrite(lhs ast.Expr, hc hookCtx) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	if root := rootIdent(lhs); root != nil {
		obj := p.objOf(root)
		if obj != nil && obj == hc.out {
			// Writing the own output row is the sanctioned mechanism
			// (fault hooks corrupt it, mitigations repair it).
			return
		}
		if obj != nil && hc.in != nil && obj == hc.in {
			p.Reportf(lhs.Pos(), "checker writes its input activation row: CheckLinear may repair out in place but must leave in untouched")
			return
		}
	}
	// A store is impure when the reference chain it writes through
	// passes model-owned memory (weights, blocks, tensors).
	if via := p.modelTypedSubexpr(lhs); via != "" {
		p.Reportf(lhs.Pos(), "hook stores to model-reachable memory (through %s): hooks observe the forward pass and may mutate only their own output row", via)
	}
}

// checkHookCall flags calls that mutate weights from inside a hook.
// Only method calls on model-owned types count: a pure value-level
// helper like numerics.FlipBits mutates nothing.
func (p *Pass) checkHookCall(call *ast.CallExpr) {
	name, recv := methodCall(call)
	switch name {
	case "FlipBits":
		if typeNamed(p.typeOf(recv), modelStateTypes...) {
			p.Reportf(call.Pos(), "hook calls FlipBits: nothing writes weights at run time — a weight fault is a strike the forward pass reads (faults.New), never an observer hook's write")
		}
	case "Set", "Fill":
		if typeNamed(p.typeOf(recv), "Tensor", "Dense") {
			p.Reportf(call.Pos(), "hook calls %s on a weight tensor: hooks must not mutate model parameters", name)
		}
	}
}

// modelTypedSubexpr reports the first step of an expression's reference
// chain whose type is model-owned (Model, Block, Tensor, Weight, ...),
// rendering it for the message; "" when the chain never touches one.
func (p *Pass) modelTypedSubexpr(e ast.Expr) string {
	for {
		if typeNamed(p.typeOf(e), modelStateTypes...) {
			if n := namedBase(p.typeOf(e)); n != nil {
				return "a " + n.Obj().Name() + " value"
			}
			return "model state"
		}
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return ""
		}
	}
}
