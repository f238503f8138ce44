package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// newMaporder flags `range` over a map whose body feeds order-sensitive
// sinks: appending to a slice declared outside the loop, accumulating
// into a float, or sending a message. Go randomizes map iteration order
// per run, floating-point addition is not associative, and message
// order is protocol-visible — so each of these makes output depend on
// the map's hash seed. The sanctioned idiom collects the keys and sorts
// them before consuming (see tempered's workSet.load and the
// topology-fixed combine order of the tree collectives); an append
// whose target is sorted by a later statement of the same block is
// therefore exempt.
//
// Scope: the whole module, cmd/* and examples/* included — map-order
// nondeterminism corrupts reproducibility wherever it appears, and the
// collect-then-sort exemption already covers the legitimate pattern.
func newMaporder() *Analyzer {
	a := &Analyzer{
		Name: "maporder",
		Doc:  "flag order-sensitive accumulation or sends inside map iteration",
	}
	a.Run = func(pass *Pass) {
		walkStack(pass.Pkg.Files, func(n ast.Node, stack []ast.Node) {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return
			}
			t := pass.TypeOf(rs.X)
			if t == nil {
				return
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return
			}
			checkMapRangeBody(pass, rs, stack)
		})
	}
	return a
}

func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt, stack []ast.Node) {
	info := pass.Pkg.Info
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rs, stack, v)
		default:
			if isSendCall(info, n) {
				pass.Reportf(n.Pos(),
					"message send inside range over map %s: send order follows randomized map order; iterate sorted keys instead",
					types.ExprString(rs.X))
				return false
			}
		}
		return true
	})
}

func checkMapRangeAssign(pass *Pass, rs *ast.RangeStmt, stack []ast.Node, as *ast.AssignStmt) {
	info := pass.Pkg.Info
	for i, lhs := range as.Lhs {
		root := rootIdent(lhs)
		if root == nil || declaredWithin(info, root, rs) {
			continue
		}
		target := types.ExprString(lhs)
		switch as.Tok {
		case token.ASSIGN, token.DEFINE:
			if i >= len(as.Rhs) {
				continue
			}
			// x = append(x, ...): order-sensitive unless x is sorted
			// by a later statement of the enclosing block.
			if call, ok := as.Rhs[i].(*ast.CallExpr); ok && isAppendOf(info, call, target) {
				if !sortedAfter(pass, rs, stack, target) {
					pass.Reportf(as.Pos(),
						"append to %s inside range over map %s without sorting afterwards: element order follows randomized map order",
						target, types.ExprString(rs.X))
				}
				continue
			}
			// x = x + e on floats.
			if bin, ok := as.Rhs[i].(*ast.BinaryExpr); ok && isFloat(pass.TypeOf(lhs)) &&
				(bin.Op == token.ADD || bin.Op == token.SUB || bin.Op == token.MUL || bin.Op == token.QUO) &&
				(types.ExprString(bin.X) == target || types.ExprString(bin.Y) == target) {
				pass.Reportf(as.Pos(),
					"float accumulation into %s inside range over map %s: FP combine order follows randomized map order; sum over sorted keys",
					target, types.ExprString(rs.X))
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if isFloat(pass.TypeOf(lhs)) {
				pass.Reportf(as.Pos(),
					"float accumulation into %s inside range over map %s: FP combine order follows randomized map order; sum over sorted keys",
					target, types.ExprString(rs.X))
			}
		}
	}
}

// isAppendOf reports whether call is append(target, ...).
func isAppendOf(info *types.Info, call *ast.CallExpr, target string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	return len(call.Args) > 0 && types.ExprString(call.Args[0]) == target
}

// sortedAfter reports whether a statement after rs in its enclosing
// block sorts target: a call into the sort or slices package, or a
// method named Sort, mentioning the exact target expression. This
// recognizes the collect-then-sort idiom.
func sortedAfter(pass *Pass, rs *ast.RangeStmt, stack []ast.Node, target string) bool {
	info := pass.Pkg.Info
	// Locate the innermost enclosing block and the statement within it
	// that contains rs.
	for si := len(stack) - 1; si >= 0; si-- {
		block, ok := stack[si].(*ast.BlockStmt)
		if !ok {
			continue
		}
		after := false
		for _, stmt := range block.List {
			if stmt.Pos() <= rs.Pos() && rs.End() <= stmt.End() {
				after = true
				continue
			}
			if !after {
				continue
			}
			if stmtSorts(info, stmt, target) {
				return true
			}
		}
		return false
	}
	return false
}

func stmtSorts(info *types.Info, stmt ast.Stmt, target string) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		sortingCall := false
		if name, ok := pkgFunc(info, call, "sort"); ok && name != "Search" {
			sortingCall = true
		} else if _, ok := pkgFunc(info, call, "slices"); ok {
			sortingCall = true
		} else if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sort" {
			sortingCall = true
			if types.ExprString(sel.X) == target {
				found = true
				return false
			}
		}
		if sortingCall {
			for _, arg := range call.Args {
				if types.ExprString(arg) == target {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
