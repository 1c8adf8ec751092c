package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerChecksumWidth enforces float64 accumulation in the ABFT
// checksum math. The detection tolerance is derived from the float32
// kernel's rounding noise (~sqrt(k)·eps32); the check side must therefore
// accumulate in float64, whose ~eps64-per-term error stays three orders
// of magnitude below that. A float32 accumulator — or narrowing a partial
// sum to float32 mid-loop — would raise the check's own noise to the
// level of the signal and silently destroy the zero-false-positive
// margin the tolerance was derived for.
var AnalyzerChecksumWidth = &Analyzer{
	Name: "checksumwidth",
	Doc:  "checksum accumulation must be float64 end to end",
	Scope: []string{
		"internal/abft",
		"internal/tensor",
	},
	Run: runChecksumWidth,
}

// checksumFuncNames marks the tensor-package functions that belong to the
// checksum path, exported or not (checkRow4 is CheckRow's four-row
// kernel); in package abft every function is checksum math.
var checksumFuncNames = []string{"Checksum", "Checked", "CheckRow", "CheckSpan"}

func runChecksumWidth(p *Pass) {
	allFuncs := p.Types != nil && p.Types.Name() == "abft"
	forEachFunc(p.Package, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		if !allFuncs && !isChecksumFuncName(decl.Name.Name) {
			return
		}
		p.checkChecksumFunc(body)
	})
}

func isChecksumFuncName(name string) bool {
	name = strings.ToUpper(name[:1]) + name[1:]
	for _, frag := range checksumFuncNames {
		if strings.Contains(name, frag) {
			return true
		}
	}
	return false
}

// checkChecksumFunc flags float32 accumulation inside the loops of a
// checksum function.
func (p *Pass) checkChecksumFunc(body *ast.BlockStmt) {
	var loopDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			var b *ast.BlockStmt
			if fs, ok := n.(*ast.ForStmt); ok {
				b = fs.Body
			} else {
				b = n.(*ast.RangeStmt).Body
			}
			ast.Inspect(b, walk)
			loopDepth--
			return false
		case *ast.AssignStmt:
			if loopDepth == 0 {
				return true
			}
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN:
				for _, lhs := range n.Lhs {
					if basicKind(p.typeOf(lhs)) == types.Float32 {
						p.Reportf(lhs.Pos(), "float32 checksum accumulator: accumulate in float64 — a float32 running sum has the same rounding noise as the kernel the checksum must out-resolve")
					}
				}
			case token.ASSIGN:
				for i, lhs := range n.Lhs {
					if basicKind(p.typeOf(lhs)) != types.Float32 || i >= len(n.Rhs) {
						continue
					}
					if p.selfAccumulation(lhs, n.Rhs[i]) {
						p.Reportf(lhs.Pos(), "float32 checksum accumulator: accumulate in float64 — a float32 running sum has the same rounding noise as the kernel the checksum must out-resolve")
					}
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// selfAccumulation reports whether rhs is an additive expression
// involving lhs itself (x = x + e, x = e - x, ...).
func (p *Pass) selfAccumulation(lhs, rhs ast.Expr) bool {
	bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
		return false
	}
	root := rootIdent(lhs)
	if root == nil {
		return false
	}
	obj := p.objOf(root)
	return p.usesObj(bin.X, obj) || p.usesObj(bin.Y, obj)
}
