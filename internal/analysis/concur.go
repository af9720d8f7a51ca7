package analysis

import (
	"go/ast"
	"go/types"
)

// Shared plumbing for the analyzers: the concurrency rules' package
// scope (lockscope, ctxdeadline) and call and type resolution against
// go/types.

// concurrencyCriticalPackages are the long-lived, deeply concurrent
// packages of the serving plane: multiplexed sessions and shedding
// (protocol), the pipeline runtime (stream), the lock-free
// metrics hot path (obs), and the engine lifecycle (core). The
// concurrency analyzers scope to these; elsewhere short-lived or
// single-goroutine code would drown the signal in noise.
var concurrencyCriticalPackages = map[string]bool{
	"protocol": true,
	"stream":   true,
	"obs":      true,
	"core":     true,
}

// calleeFunc resolves a call to its *types.Func (function, method, or
// interface method), or nil for builtins, conversions, and indirect
// calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj, _ := info.Uses[f].(*types.Func)
		return obj
	case *ast.SelectorExpr:
		obj, _ := info.Uses[f.Sel].(*types.Func)
		return obj
	}
	return nil
}

// callReceiver returns the receiver expression of a method-shaped call
// (the x in x.m(...) / x.y.m(...)), or nil for plain function calls.
func callReceiver(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// typeOf returns the type of e, or nil when untypeable.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isChanType reports whether t's core type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// selectHasDefault reports whether a select statement carries a default
// clause (making the dispatch non-blocking).
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
