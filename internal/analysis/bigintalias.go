package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BigintaliasAnalyzer flags the two big.Int aliasing hazards that corrupt
// key or ciphertext material silently:
//
//  1. mutate-through-alias: a local variable bound to another *big.Int by
//     plain assignment (x := y, or x := s.field) used as the receiver of a
//     mutating method — the mutation clobbers the aliased value. Aliases
//     of struct fields are always flagged (the struct's internals change
//     behind its back); aliases of plain variables are flagged only when
//     the source is read again after the mutation. The idiomatic in-place
//     form t.Div(t, d) (receiver == argument, same variable) is exempt.
//
//  2. leaky accessor: an exported method returning a *big.Int field of its
//     receiver by reference instead of a copy — callers can then mutate
//     key/ciphertext internals (cf. Ciphertext.Value, which copies).
var BigintaliasAnalyzer = &Analyzer{
	Name: "bigintalias",
	Doc:  "big.Int mutation through aliases and accessors leaking internal *big.Int references",
	Run:  runBigintalias,
}

// bigIntMutators are the math/big.Int methods that write to their
// receiver.
var bigIntMutators = map[string]bool{
	"Abs": true, "Add": true, "And": true, "AndNot": true, "Binomial": true,
	"Div": true, "DivMod": true, "Exp": true, "GCD": true, "Lsh": true,
	"Mod": true, "ModInverse": true, "ModSqrt": true, "Mul": true,
	"MulRange": true, "Neg": true, "Not": true, "Or": true, "Quo": true,
	"QuoRem": true, "Rand": true, "Rem": true, "Rsh": true, "Set": true,
	"SetBit": true, "SetBits": true, "SetBytes": true, "SetInt64": true,
	"SetString": true, "SetUint64": true, "Sqrt": true, "Sub": true,
	"Xor": true,
}

func runBigintalias(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLeakyAccessor(pass, fd)
			checkMutateThroughAlias(pass, fd)
		}
	}
	return nil
}

// isBigIntPtr reports whether t is *math/big.Int.
func isBigIntPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Int" && obj.Pkg() != nil && obj.Pkg().Path() == "math/big"
}

// checkLeakyAccessor flags exported methods returning a receiver field of
// type *big.Int by reference.
func checkLeakyAccessor(pass *Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || !fd.Name.IsExported() || len(fd.Recv.List) == 0 {
		return
	}
	var recvObj types.Object
	if names := fd.Recv.List[0].Names; len(names) == 1 {
		recvObj = pass.Pkg.Info.Defs[names[0]]
	}
	if recvObj == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, e := range ret.Results {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			tv, ok := pass.Pkg.Info.Types[e]
			if !ok || !isBigIntPtr(tv.Type) {
				continue
			}
			root := rootIdent(sel.X)
			if root == nil || pass.Pkg.Info.Uses[root] != recvObj {
				continue
			}
			pass.Reportf(e.Pos(), "exported %s returns internal *big.Int %s by reference: return new(big.Int).Set(%s) so callers cannot mutate key/ciphertext state", fd.Name.Name, exprString(e), exprString(e))
		}
		return true
	})
}

// aliasBinding records x := y (or x := s.field) for *big.Int values.
type aliasBinding struct {
	obj        types.Object // the alias variable
	sourceObj  types.Object // source variable object (nil for field sources)
	fromField  bool         // source is a selector (struct internals)
	sourceText string
}

// checkMutateThroughAlias flags mutating big.Int method calls whose
// receiver is a plain-assignment alias of another *big.Int.
func checkMutateThroughAlias(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	aliases := map[types.Object]*aliasBinding{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, lhs := range as.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				var lobj types.Object
				if as.Tok == token.DEFINE {
					lobj = info.Defs[lid]
				} else {
					lobj = info.Uses[lid]
				}
				if lobj == nil || !isBigIntPtr(lobj.Type()) {
					continue
				}
				switch rhs := ast.Unparen(as.Rhs[i]).(type) {
				case *ast.Ident:
					if robj := info.Uses[rhs]; robj != nil && isBigIntPtr(robj.Type()) {
						aliases[lobj] = &aliasBinding{obj: lobj, sourceObj: robj, sourceText: rhs.Name}
					}
				case *ast.SelectorExpr:
					if tv, ok := info.Types[as.Rhs[i]]; ok && isBigIntPtr(tv.Type) {
						if _, isField := info.Selections[rhs]; isField {
							aliases[lobj] = &aliasBinding{obj: lobj, fromField: true, sourceText: exprString(as.Rhs[i])}
						}
					}
				default:
					// Assignment from a call (new(big.Int)..., lFunc(...))
					// or literal breaks any previous alias.
					delete(aliases, lobj)
				}
			}
		}
		return true
	})
	if len(aliases) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !bigIntMutators[sel.Sel.Name] {
			return true
		}
		recvID, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		recvObj := info.Uses[recvID]
		binding := aliases[recvObj]
		if binding == nil {
			return true
		}
		// Confirm this resolves to a math/big.Int method, not a same-named
		// method on some other type.
		if fn, ok := info.Uses[sel.Sel].(*types.Func); !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math/big" {
			return true
		}
		if binding.fromField {
			pass.Reportf(call.Pos(), "%s.%s mutates %s through alias %s: the aliased struct internals change in place — copy with new(big.Int).Set(%s) first", recvID.Name, sel.Sel.Name, binding.sourceText, recvID.Name, binding.sourceText)
			return true
		}
		if binding.sourceObj == recvObj {
			return true // x := x self-alias: meaningless but harmless
		}
		if readAfter(info, fd, binding.sourceObj, call.End()) {
			pass.Reportf(call.Pos(), "%s.%s mutates the value aliased from %s, which is read again afterwards: copy with new(big.Int).Set(%s) before mutating", recvID.Name, sel.Sel.Name, binding.sourceText, binding.sourceText)
		}
		return true
	})
}

// rootIdent returns the base identifier of an lvalue chain
// (out, out[i], out.f, *p ...), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch ex := ast.Unparen(e).(type) {
		case *ast.Ident:
			return ex
		case *ast.IndexExpr:
			e = ex.X
		case *ast.SelectorExpr:
			e = ex.X
		case *ast.StarExpr:
			e = ex.X
		default:
			return nil
		}
	}
}

// readAfter reports whether obj is referenced anywhere after pos in the
// function body.
func readAfter(info *types.Info, fd *ast.FuncDecl, obj types.Object, pos token.Pos) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if ok && id.Pos() > pos && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
