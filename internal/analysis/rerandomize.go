package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// RerandomizeAnalyzer enforces the paper's ciphertext-egress invariant
// (§III-B, and the PR 2 unblinded-row fix): every exported paillier
// function whose result is a ciphertext derived from homomorphic
// operations must reach a re-randomization (fresh r^n blinding) on every
// return path. Otherwise an output's randomness is only inherited from
// its inputs — and absent entirely for an all-zero weight row, which
// previously leaked the deterministic embedding of the bias.
//
// The check walks a package-local call graph: a function "derives" if it
// (or a package function it calls) performs homomorphic arithmetic, and a
// return path is "blinded" if a blinding call (freshBlinding — public or
// key-holder — / draw / Blinding / Encrypt* / Rerandomize*) is definitely executed before it, or the
// returned expression itself comes from an always-blinding function. The
// per-path question is answered by a forward must-analysis over the
// shared CFG (cfg.go / dataflow.go): the blinded fact meets with AND at
// joins, so only blinding that dominates a return counts.
//
// Allowlisted: the low-level homomorphic primitives Add, AddPlain,
// MulScalar, and MulScalarInt64 (Eq. 1/2 building blocks whose contract
// puts blinding at the egress boundary, i.e. the kernel and protocol
// layers), and *Ref-suffixed differential-test reference implementations,
// which are documented as never leaving the model provider.
//
// The kernel's row evaluator, Rows, is unblinded too: a round's rows are
// blinded together, a slot-full per factor, when Pack folds them into the
// reply. That exemption is earned, not granted: it holds only while the
// package has a Pack that blinds on every path, and the second half of
// the analyzer (checkEnvelopes, run on every package) requires that an
// Envelope's ciphertext field is only ever filled from Pack, from a fresh
// encryption, or by the wire decoder — so no row can reach the data
// provider except through Pack.
var RerandomizeAnalyzer = &Analyzer{
	Name: "rerandomize",
	Doc:  "exported paillier ciphertext producers must re-randomize on every return path",
	Run:  runRerandomize,
}

// blindingNames are the functions that introduce fresh r^n randomness (or
// are themselves the re-randomization operation). A call to any of these,
// resolved to the package under analysis, marks the path blinded.
var blindingNames = map[string]bool{
	"freshBlinding":       true, // PublicKey's r^n and PrivateKey's CRT sampler alike
	"draw":                true, // the metered draw from any Blinder
	"encryptWithBlinding": true,
	"Blinding":            true,
	"blinding":            true,
	"BlindingTracked":     true,
	"Encrypt":             true,
	"EncryptTracked":      true,
	"EncryptWithBlinding": true,
	"EncryptZero":         true,
	"EncryptInt64":        true,
	"Rerandomize":         true,
	"RerandomizeWith":     true,
}

// homomorphicPrimitives are the exported Eq. 1/2 building blocks: they
// derive ciphertexts homomorphically by design and are exempt from the
// egress rule (their documented contract defers blinding to the caller).
var homomorphicPrimitives = map[string]bool{
	"Add":            true,
	"AddPlain":       true,
	"MulScalar":      true,
	"MulScalarInt64": true,
}

// bigIntHomomorphicOps are the math/big methods whose use on ring
// elements marks a function as homomorphically deriving: modular
// multiplication (Eq. 1), exponentiation (Eq. 2), and inversion
// (negative weights).
var bigIntHomomorphicOps = map[string]bool{
	"Mul":        true,
	"Exp":        true,
	"ModInverse": true,
}

type rerandomizer struct {
	pass  *Pass
	pkg   *types.Package
	decls map[*types.Func]*ast.FuncDecl
	// derives marks functions that perform (transitively) homomorphic
	// arithmetic; alwaysBlinds marks functions whose every non-nil
	// ciphertext return is blinded.
	derives      map[*types.Func]bool
	alwaysBlinds map[*types.Func]bool
}

// rowProducer is the kernel's unblinded row evaluator and packer the
// function whose blinding makes that acceptable.
const (
	rowProducer = "Rows"
	packer      = "Pack"
)

// sealingNames are the calls whose ciphertext results may fill an
// Envelope: the reply packer, and the encryptions of the data provider's
// own values. FromWire, which carries the peer's ciphertexts rather than
// deriving any, is exempt as a whole.
var sealingNames = map[string]bool{
	packer:          true,
	"EncryptTensor": true,
	"encryptTensor": true,
}

func runRerandomize(pass *Pass) error {
	checkEnvelopes(pass)
	if pkgBase(pass.Pkg.Path) != "paillier" {
		return nil
	}
	r := &rerandomizer{
		pass:         pass,
		pkg:          pass.Pkg.Types,
		decls:        map[*types.Func]*ast.FuncDecl{},
		derives:      map[*types.Func]bool{},
		alwaysBlinds: map[*types.Func]bool{},
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				r.decls[obj] = fd
			}
		}
	}
	r.computeDerives()
	r.computeAlwaysBlinds()

	for obj, fd := range r.decls {
		name := obj.Name()
		if !fd.Name.IsExported() || !r.derives[obj] || !r.returnsCiphertext(obj) {
			continue
		}
		if blindingNames[name] || homomorphicPrimitives[name] || strings.HasSuffix(name, "Ref") {
			continue
		}
		if name == rowProducer && r.packs() {
			continue
		}
		for _, bad := range r.blindViolations(fd.Body) {
			r.pass.Reportf(bad.Pos(), "exported %s returns a homomorphically-derived ciphertext without re-randomization on this path: multiply in a fresh r^n blinding factor before the ciphertext leaves the model provider (paper §III-B)", name)
		}
	}
	return nil
}

// packs reports whether the package has a packer that blinds on every
// return path — the condition under which rowProducer may stay unblinded.
func (r *rerandomizer) packs() bool {
	for obj := range r.decls {
		if obj.Name() == packer && r.alwaysBlinds[obj] {
			return true
		}
	}
	return false
}

// checkEnvelopes enforces the other side of the row exemption in whatever
// package builds protocol envelopes: every value stored in the CT field
// of a struct type named Envelope — by composite literal or by assignment
// — must be the result of a sealing call (sealingNames), directly or
// through a local the function assigned from one.
func checkEnvelopes(pass *Pass) {
	info := pass.Pkg.Info
	isEnvelope := func(t types.Type) bool {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		return ok && named.Obj().Name() == "Envelope"
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "FromWire" {
				continue
			}
			// sealed holds the locals assigned from a sealing call.
			sealed := map[types.Object]bool{}
			isSealed := func(e ast.Expr) bool {
				switch ex := ast.Unparen(e).(type) {
				case *ast.CallExpr:
					switch f := ast.Unparen(ex.Fun).(type) {
					case *ast.Ident:
						return sealingNames[f.Name]
					case *ast.SelectorExpr:
						return sealingNames[f.Sel.Name]
					}
				case *ast.Ident:
					if tv, ok := info.Types[ex]; ok && tv.IsNil() {
						return true
					}
					return sealed[info.ObjectOf(ex)]
				}
				return false
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if st, ok := n.(*ast.AssignStmt); ok && len(st.Rhs) == 1 && isSealed(st.Rhs[0]) {
					for _, lhs := range st.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && info.ObjectOf(id) != nil {
							sealed[info.ObjectOf(id)] = true
						}
					}
				}
				return true
			})
			report := func(e ast.Expr) {
				pass.Reportf(e.Pos(), "Envelope.CT filled outside %s: kernel rows are unblinded, so a ciphertext may enter an envelope only from %s, from a fresh encryption, or in FromWire (paper §III-B)", packer, packer)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch nn := n.(type) {
				case *ast.CompositeLit:
					tv, ok := info.Types[nn]
					if !ok || !isEnvelope(tv.Type) {
						return true
					}
					for i, elt := range nn.Elts {
						kv, keyed := elt.(*ast.KeyValueExpr)
						if !keyed {
							// Positional literal: element i is field i.
							if st, ok := tv.Type.Underlying().(*types.Struct); ok && i < st.NumFields() && st.Field(i).Name() == "CT" && !isSealed(elt) {
								report(elt)
							}
							continue
						}
						if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "CT" && !isSealed(kv.Value) {
							report(kv.Value)
						}
					}
				case *ast.AssignStmt:
					if len(nn.Lhs) != len(nn.Rhs) {
						return true
					}
					for i, lhs := range nn.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok || sel.Sel.Name != "CT" {
							continue
						}
						if tv, ok := info.Types[sel.X]; ok && isEnvelope(tv.Type) && !isSealed(nn.Rhs[i]) {
							report(nn.Rhs[i])
						}
					}
				}
				return true
			})
		}
	}
}

// calleeObj resolves a call expression to its function object, or nil.
func (r *rerandomizer) calleeObj(call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj, _ := r.pass.Pkg.Info.Uses[f].(*types.Func)
		return obj
	case *ast.SelectorExpr:
		obj, _ := r.pass.Pkg.Info.Uses[f.Sel].(*types.Func)
		return obj
	}
	return nil
}

// computeDerives marks functions performing homomorphic arithmetic,
// propagated transitively through package-local calls.
func (r *rerandomizer) computeDerives() {
	callers := map[*types.Func][]*types.Func{} // callee -> callers
	var work []*types.Func
	for obj, fd := range r.decls {
		seeded := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := r.calleeObj(call)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			switch callee.Pkg().Path() {
			case r.pkg.Path():
				if homomorphicPrimitives[callee.Name()] {
					seeded = true
				}
				callers[callee] = append(callers[callee], obj)
			case "math/big":
				if bigIntHomomorphicOps[callee.Name()] {
					seeded = true
				}
			}
			return true
		})
		if seeded {
			r.derives[obj] = true
			work = append(work, obj)
		}
	}
	for len(work) > 0 {
		callee := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range callers[callee] {
			if !r.derives[caller] {
				r.derives[caller] = true
				work = append(work, caller)
			}
		}
	}
}

// computeAlwaysBlinds iterates to a fixpoint over ciphertext-returning
// package functions: a function always blinds when every return of a
// non-nil ciphertext happens in blinded path state (or returns the result
// of another always-blinding function). Growing the set can only make
// more functions pass, so iteration is monotone.
func (r *rerandomizer) computeAlwaysBlinds() {
	for changed := true; changed; {
		changed = false
		for obj, fd := range r.decls {
			if r.alwaysBlinds[obj] || !r.returnsCiphertext(obj) {
				continue
			}
			if len(r.blindViolations(fd.Body)) == 0 {
				r.alwaysBlinds[obj] = true
				changed = true
			}
		}
	}
}

// returnsCiphertext reports whether the function's result tuple contains
// the package's Ciphertext type (directly, behind pointers/slices/maps,
// or as a generic type argument).
func (r *rerandomizer) returnsCiphertext(obj *types.Func) bool {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if r.typeHasCiphertext(res.At(i).Type(), 0) {
			return true
		}
	}
	return false
}

func (r *rerandomizer) typeHasCiphertext(t types.Type, depth int) bool {
	if depth > 6 {
		return false
	}
	switch tt := t.(type) {
	case *types.Named:
		if obj := tt.Obj(); obj != nil && obj.Name() == "Ciphertext" && obj.Pkg() == r.pkg {
			return true
		}
		for i := 0; i < tt.TypeArgs().Len(); i++ {
			if r.typeHasCiphertext(tt.TypeArgs().At(i), depth+1) {
				return true
			}
		}
		return false
	case *types.Alias:
		return r.typeHasCiphertext(types.Unalias(tt), depth+1)
	case *types.Pointer:
		return r.typeHasCiphertext(tt.Elem(), depth+1)
	case *types.Slice:
		return r.typeHasCiphertext(tt.Elem(), depth+1)
	case *types.Array:
		return r.typeHasCiphertext(tt.Elem(), depth+1)
	case *types.Map:
		return r.typeHasCiphertext(tt.Elem(), depth+1)
	case *types.Tuple:
		// return f(...) with a multi-valued f: any member counts.
		for i := 0; i < tt.Len(); i++ {
			if r.typeHasCiphertext(tt.At(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}

// isBlindingCall reports whether a call introduces fresh blinding: a
// blinding-named function of this package, or an always-blinding package
// function.
func (r *rerandomizer) isBlindingCall(call *ast.CallExpr) bool {
	callee := r.calleeObj(call)
	if callee == nil || callee.Pkg() != r.pkg {
		return false
	}
	return blindingNames[callee.Name()] || r.alwaysBlinds[callee]
}

// containsBlinding reports whether any call under n is a blinding call.
// The walk is scoped to one CFG node — a range header contributes only
// its ranged operand (the body lives in successor blocks) and a select
// dispatch contributes nothing — but it does descend into function
// literals: a closure argument (the parallelFor worker in EncryptTensor)
// executes within the call it is passed to, so its blinding blinds the
// path, exactly as the pre-CFG tree walker treated it.
func (r *rerandomizer) containsBlinding(n ast.Node) bool {
	if n == nil {
		return false
	}
	switch nn := n.(type) {
	case *ast.RangeStmt:
		return r.containsBlinding(nn.X)
	case *ast.SelectStmt:
		return false
	}
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if call, ok := c.(*ast.CallExpr); ok && r.isBlindingCall(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// blindFlow is the per-function "definitely blinded before return"
// analysis, phrased as a forward must-analysis over the shared CFG: the
// fact is a single boolean (has a blinding call definitely executed?),
// seeded false at entry, meeting with AND at joins. Loop back-edges
// therefore cannot leak body-only blinding past the loop (the
// zero-iteration path wins the meet), and blinding inside only one arm
// of a branch does not survive the join — exactly the old tree-walker
// semantics, now derived from real control-flow edges.
type blindFlow struct {
	r *rerandomizer
	// tainted holds idents bound to blinded ciphertexts, computed by a
	// flow-insensitive fixpoint over the body's assignments before the
	// path analysis runs.
	tainted map[types.Object]bool
	// violations are the returned expressions (or return statements) that
	// may carry an unblinded derived ciphertext.
	violations []ast.Node
}

// blindViolations runs the must-blinded analysis over one function body
// and returns the unblinded-return nodes.
func (r *rerandomizer) blindViolations(body *ast.BlockStmt) []ast.Node {
	cfg := BuildCFG(body)
	if cfg == nil {
		return nil
	}
	f := &blindFlow{r: r, tainted: map[types.Object]bool{}}
	f.computeTaint(body)

	res := SolveForward(cfg, false,
		func(b *Block, in bool) bool {
			for _, n := range b.Nodes {
				in = f.transfer(n, in)
			}
			return in
		},
		func(a, b bool) bool { return a && b },
		func(a, b bool) bool { return a == b },
	)
	// Replay each reachable block from its entry fact to check the return
	// statements with the state holding exactly there.
	for _, b := range cfg.Blocks {
		in, reachable := res.In[b]
		if !reachable {
			continue
		}
		for _, n := range b.Nodes {
			if ret, ok := n.(*ast.ReturnStmt); ok {
				f.checkReturn(ret, in)
			}
			in = f.transfer(n, in)
		}
	}
	return f.violations
}

// transfer applies one CFG node to the blinded fact.
func (f *blindFlow) transfer(n ast.Node, blinded bool) bool {
	switch n.(type) {
	case *ast.ReturnStmt:
		// Checked separately; evaluating the results does not blind.
		return blinded
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred/concurrent blinding cannot blind the value a return
		// statement has already evaluated: no state change.
		return blinded
	}
	if f.r.containsBlinding(n) {
		return true
	}
	return blinded
}

// computeTaint marks idents assigned from blinding calls (or from
// already-tainted idents, or appends of tainted values) as holding
// blinded ciphertexts, iterated to a fixpoint so chains of assignments
// converge regardless of source order. Assignment into an element of a
// composite (out[i] = ct) propagates to the root ident.
func (f *blindFlow) computeTaint(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			st, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if len(st.Rhs) != 1 || !f.rhsBlinded(st.Rhs[0]) {
				return true
			}
			for _, lhs := range st.Lhs {
				if root := rootIdent(lhs); root != nil {
					if obj := f.identObj(root); obj != nil && !f.tainted[obj] {
						f.tainted[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
}

func (f *blindFlow) rhsBlinded(e ast.Expr) bool {
	switch ex := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if f.r.isBlindingCall(ex) {
			return true
		}
		// append(xs, ct, ...) propagates taint: accumulating blinded
		// ciphertexts into a slice keeps the slice blinded.
		if id, ok := ast.Unparen(ex.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := f.identObj(id).(*types.Builtin); isBuiltin {
				for _, arg := range ex.Args {
					if f.exprBlinded(arg) {
						return true
					}
				}
			}
		}
		return false
	case *ast.Ident:
		obj := f.identObj(ex)
		return obj != nil && f.tainted[obj]
	}
	return false
}

func (f *blindFlow) identObj(id *ast.Ident) types.Object {
	info := f.r.pass.Pkg.Info
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// checkReturn validates one return statement: every returned expression
// of ciphertext type must be nil, blinded by path state, or itself the
// result of a blinding call / tainted ident.
func (f *blindFlow) checkReturn(ret *ast.ReturnStmt, blinded bool) {
	if blinded {
		return
	}
	if len(ret.Results) == 0 {
		// Naked return with named ciphertext results in unblinded state.
		f.violations = append(f.violations, ret)
		return
	}
	info := f.r.pass.Pkg.Info
	for _, e := range ret.Results {
		tv, ok := info.Types[e]
		if !ok || !f.r.typeHasCiphertext(tv.Type, 0) {
			continue
		}
		if tv.IsNil() || f.exprBlinded(e) {
			continue
		}
		f.violations = append(f.violations, e)
	}
}

func (f *blindFlow) exprBlinded(e ast.Expr) bool {
	switch ex := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return f.r.isBlindingCall(ex)
	case *ast.Ident:
		obj := f.identObj(ex)
		return obj != nil && f.tainted[obj]
	case *ast.UnaryExpr:
		// &Ciphertext{c: x} with x tainted.
		if cl, ok := ex.X.(*ast.CompositeLit); ok {
			return f.compositeBlinded(cl)
		}
	case *ast.CompositeLit:
		return f.compositeBlinded(ex)
	}
	return false
}

func (f *blindFlow) compositeBlinded(cl *ast.CompositeLit) bool {
	for _, elt := range cl.Elts {
		v := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			v = kv.Value
		}
		if id, ok := ast.Unparen(v).(*ast.Ident); ok {
			if obj := f.identObj(id); obj != nil && f.tainted[obj] {
				return true
			}
		}
	}
	return false
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
