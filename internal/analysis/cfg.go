package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the intraprocedural control-flow-graph builder lockscope's
// held-lock analysis runs on. A CFG decomposes one function body into
// basic blocks of *leaf* nodes — simple statements and the control
// expressions of compound statements —
// connected by the edges execution can actually take, including loop
// back-edges, break/continue/goto, switch/select dispatch, and panics.
// An analysis then solves a forward fixpoint over the graph (see
// dataflow.go) instead of re-deriving control flow from the statement
// tree.
//
// Node granularity: a block's Nodes are executed in order and are either
// leaf statements (assignments, sends, expression statements, defers, go
// statements, returns) or the governing expressions of compound
// statements (an if/for condition, a switch tag, a range operand, or the
// *ast.SelectStmt itself, which models the blocking dispatch point).
// Compound statements never appear as nodes with their bodies attached —
// bodies are split into successor blocks — so an analysis may inspect a
// node without double-visiting code, provided it uses InspectNode (which
// knows not to descend into the few compound nodes and skips nested
// function literals).

// Block is one basic block: nodes executed strictly in order, with
// control transferring to exactly one successor afterwards.
type Block struct {
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// CFG is one function body's control-flow graph. Entry starts the body;
// Exit is the single synthetic block every return, panic, and
// fall-off-the-end path reaches. A defer statement is a node where it is
// registered; what it defers runs after the last block of a path.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block

	// SelectComm marks statements that are a select case's communication
	// clause: they execute only once the select has already committed, so
	// they are not independently blocking operations.
	SelectComm map[ast.Stmt]bool
}

// BuildCFG constructs the control-flow graph of one function body.
// Returns nil for bodyless declarations.
func BuildCFG(body *ast.BlockStmt) *CFG {
	if body == nil {
		return nil
	}
	b := &cfgBuilder{
		cfg:    &CFG{SelectComm: map[ast.Stmt]bool{}},
		labels: map[string]*Block{},
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	end := b.stmts(body.List, b.cfg.Entry)
	if end != nil {
		b.edge(end, b.cfg.Exit)
	}
	for _, g := range b.pendingGotos {
		if target := b.labels[g.label]; target != nil {
			b.edge(g.from, target)
		} else {
			// Unresolvable goto (should not parse): conservatively exits.
			b.edge(g.from, b.cfg.Exit)
		}
	}
	return b.cfg
}

// loopScope is one enclosing breakable/continuable construct.
type loopScope struct {
	label        string
	breakTo      *Block
	continueTo   *Block // nil for switch/select scopes
	isSwitchLike bool
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	cfg          *CFG
	scopes       []loopScope
	labels       map[string]*Block
	pendingGotos []pendingGoto
	// pendingLabel is the label attached to the next loop/switch/select
	// statement (labeled break/continue target).
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// ensure returns cur, or a fresh unreachable block when control cannot
// reach here (dead code still gets blocks, with no predecessors).
func (b *cfgBuilder) ensure(cur *Block) *Block {
	if cur == nil {
		return b.newBlock()
	}
	return cur
}

// stmts threads a statement list through the graph and returns the block
// control falls out of (nil when every path terminated).
func (b *cfgBuilder) stmts(list []ast.Stmt, cur *Block) *Block {
	for _, s := range list {
		cur = b.stmt(s, cur)
	}
	return cur
}

// takeLabel consumes the pending label for a labeled loop/switch/select.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findScope resolves a break/continue to its target scope.
func (b *cfgBuilder) findScope(label string, forContinue bool) *loopScope {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := &b.scopes[i]
		if label != "" && sc.label != label {
			continue
		}
		if forContinue && sc.continueTo == nil {
			continue
		}
		return sc
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt, cur *Block) *Block {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(st.List, b.ensure(cur))

	case *ast.LabeledStmt:
		// The label targets the statement it annotates: a fresh block so a
		// goto (or labeled continue) has a join point to land on.
		target := b.newBlock()
		if cur != nil {
			b.edge(cur, target)
		}
		b.labels[st.Label.Name] = target
		switch st.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = st.Label.Name
		}
		return b.stmt(st.Stmt, target)

	case *ast.ReturnStmt:
		cur = b.ensure(cur)
		cur.Nodes = append(cur.Nodes, st)
		b.edge(cur, b.cfg.Exit)
		return nil

	case *ast.BranchStmt:
		cur = b.ensure(cur)
		label := ""
		if st.Label != nil {
			label = st.Label.Name
		}
		switch st.Tok {
		case token.BREAK:
			if sc := b.findScope(label, false); sc != nil {
				b.edge(cur, sc.breakTo)
			} else {
				b.edge(cur, b.cfg.Exit)
			}
		case token.CONTINUE:
			if sc := b.findScope(label, true); sc != nil {
				b.edge(cur, sc.continueTo)
			} else {
				b.edge(cur, b.cfg.Exit)
			}
		case token.GOTO:
			b.pendingGotos = append(b.pendingGotos, pendingGoto{from: cur, label: label})
		case token.FALLTHROUGH:
			// Handled structurally by the switch builder; a stray
			// fallthrough terminates the block.
		}
		return nil

	case *ast.IfStmt:
		cur = b.ensure(cur)
		if st.Init != nil {
			cur = b.ensure(b.stmt(st.Init, cur))
		}
		cur.Nodes = append(cur.Nodes, st.Cond)
		thenB := b.newBlock()
		b.edge(cur, thenB)
		thenEnd := b.stmts(st.Body.List, thenB)
		// With no else branch, a false condition falls through to the join.
		elseEnd := cur
		if st.Else != nil {
			elseB := b.newBlock()
			b.edge(cur, elseB)
			elseEnd = b.stmt(st.Else, elseB)
		}
		if thenEnd == nil && elseEnd == nil {
			return nil
		}
		join := b.newBlock()
		if thenEnd != nil {
			b.edge(thenEnd, join)
		}
		if elseEnd != nil {
			b.edge(elseEnd, join)
		}
		return join

	case *ast.ForStmt:
		cur = b.ensure(cur)
		label := b.takeLabel()
		if st.Init != nil {
			cur = b.ensure(b.stmt(st.Init, cur))
		}
		header := b.newBlock()
		b.edge(cur, header)
		exitB := b.newBlock()
		if st.Cond != nil {
			header.Nodes = append(header.Nodes, st.Cond)
			b.edge(header, exitB)
		}
		continueTo := header
		var postB *Block
		if st.Post != nil {
			postB = b.newBlock()
			b.stmt(st.Post, postB)
			b.edge(postB, header)
			continueTo = postB
		}
		bodyB := b.newBlock()
		b.edge(header, bodyB)
		b.scopes = append(b.scopes, loopScope{label: label, breakTo: exitB, continueTo: continueTo})
		bodyEnd := b.stmts(st.Body.List, bodyB)
		b.scopes = b.scopes[:len(b.scopes)-1]
		if bodyEnd != nil {
			b.edge(bodyEnd, continueTo)
		}
		return exitB

	case *ast.RangeStmt:
		cur = b.ensure(cur)
		label := b.takeLabel()
		header := b.newBlock()
		b.edge(cur, header)
		// The whole RangeStmt is the header node: analyses see the ranged
		// operand (a blocking receive when it is a channel) via
		// InspectNode, which does not descend into the body.
		header.Nodes = append(header.Nodes, st)
		exitB := b.newBlock()
		b.edge(header, exitB)
		bodyB := b.newBlock()
		b.edge(header, bodyB)
		b.scopes = append(b.scopes, loopScope{label: label, breakTo: exitB, continueTo: header})
		bodyEnd := b.stmts(st.Body.List, bodyB)
		b.scopes = b.scopes[:len(b.scopes)-1]
		if bodyEnd != nil {
			b.edge(bodyEnd, header)
		}
		return exitB

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		cur = b.ensure(cur)
		label := b.takeLabel()
		var clauses []ast.Stmt
		switch sw := st.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				cur = b.ensure(b.stmt(sw.Init, cur))
			}
			if sw.Tag != nil {
				cur.Nodes = append(cur.Nodes, sw.Tag)
			}
			clauses = sw.Body.List
		case *ast.TypeSwitchStmt:
			if sw.Init != nil {
				cur = b.ensure(b.stmt(sw.Init, cur))
			}
			cur.Nodes = append(cur.Nodes, sw.Assign)
			clauses = sw.Body.List
		}
		exitB := b.newBlock()
		hasDefault := false
		// Two passes so fallthrough can edge into the next case body.
		caseBlocks := make([]*Block, len(clauses))
		for i := range clauses {
			caseBlocks[i] = b.newBlock()
			b.edge(cur, caseBlocks[i])
		}
		b.scopes = append(b.scopes, loopScope{label: label, breakTo: exitB, isSwitchLike: true})
		for i, c := range clauses {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				caseBlocks[i].Nodes = append(caseBlocks[i].Nodes, e)
			}
			body := cc.Body
			fallsThrough := false
			if n := len(body); n > 0 {
				if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					body = body[:n-1]
					fallsThrough = true
				}
			}
			end := b.stmts(body, caseBlocks[i])
			if end != nil {
				if fallsThrough && i+1 < len(caseBlocks) {
					b.edge(end, caseBlocks[i+1])
				} else {
					b.edge(end, exitB)
				}
			}
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		if !hasDefault {
			b.edge(cur, exitB)
		}
		return exitB

	case *ast.SelectStmt:
		cur = b.ensure(cur)
		label := b.takeLabel()
		// The SelectStmt itself is the dispatch node: with no default
		// clause it is a blocking point.
		cur.Nodes = append(cur.Nodes, st)
		exitB := b.newBlock()
		b.scopes = append(b.scopes, loopScope{label: label, breakTo: exitB, isSwitchLike: true})
		for _, c := range st.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			caseB := b.newBlock()
			b.edge(cur, caseB)
			if cc.Comm != nil {
				caseB.Nodes = append(caseB.Nodes, cc.Comm)
				b.cfg.SelectComm[cc.Comm] = true
			}
			if end := b.stmts(cc.Body, caseB); end != nil {
				b.edge(end, exitB)
			}
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		return exitB

	default:
		cur = b.ensure(cur)
		cur.Nodes = append(cur.Nodes, s)
		if isTerminating(s) {
			b.edge(cur, b.cfg.Exit)
			return nil
		}
		return cur
	}
}

// isTerminating recognizes statements control never flows past: panic
// and os.Exit calls.
func isTerminating(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fn.X.(*ast.Ident); ok {
			return (pkg.Name == "os" && fn.Sel.Name == "Exit") ||
				(pkg.Name == "runtime" && fn.Sel.Name == "Goexit")
		}
	}
	return false
}

// InspectNode walks one CFG node the way analyses must: nested function
// literals are skipped (their bodies are separate functions), and the
// two compound node kinds a block may carry — a RangeStmt header and a
// SelectStmt dispatch — expose only their governing parts, never the
// bodies that live in successor blocks.
func InspectNode(n ast.Node, f func(ast.Node) bool) {
	switch nn := n.(type) {
	case *ast.RangeStmt:
		if !f(n) {
			return
		}
		if nn.Key != nil {
			InspectNode(nn.Key, f)
		}
		if nn.Value != nil {
			InspectNode(nn.Value, f)
		}
		InspectNode(nn.X, f)
		return
	case *ast.SelectStmt:
		// The dispatch point has no sub-expressions of its own; the comm
		// clauses are nodes of the case blocks.
		f(n)
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		return f(c)
	})
}

// funcUnit is one analyzable function: a declaration or a function
// literal, with the body the CFG is built from.
type funcUnit struct {
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	body *ast.BlockStmt
}

func (u funcUnit) name() string {
	if u.decl != nil {
		return u.decl.Name.Name
	}
	return "func literal"
}

// funcType returns the unit's type expression (for parameter scans).
func (u funcUnit) funcType() *ast.FuncType {
	if u.decl != nil {
		return u.decl.Type
	}
	return u.lit.Type
}

// funcUnits lists every function declaration and function literal in the
// file, each with its own body: analyses treat literals as independent
// functions (their control flow is not the enclosing function's).
func funcUnits(file *ast.File) []funcUnit {
	var units []funcUnit
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				units = append(units, funcUnit{decl: fn, body: fn.Body})
			}
		case *ast.FuncLit:
			units = append(units, funcUnit{lit: fn, body: fn.Body})
		}
		return true
	})
	return units
}
