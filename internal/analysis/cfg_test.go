package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// Direct unit tests for the CFG builder and the forward dataflow solver:
// the lockscope fixture exercises them through the analyzer, these pin
// the structural properties it relies on.

// parseFuncBody parses `src` as the body of a function and builds its
// CFG.
func parseFuncBody(t *testing.T, src string) *CFG {
	t.Helper()
	file := "package p\nfunc f() {\n" + src + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test.go", file, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	cfg := BuildCFG(fd.Body)
	if cfg == nil {
		t.Fatal("BuildCFG returned nil for non-nil body")
	}
	return cfg
}

// reachable walks Succs from Entry.
func reachable(cfg *CFG) map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(cfg.Entry)
	return seen
}

func TestCFGStraightLine(t *testing.T) {
	cfg := parseFuncBody(t, "x := 1\n_ = x\nreturn")
	if !reachable(cfg)[cfg.Exit] {
		t.Fatal("exit unreachable in straight-line function")
	}
	if len(cfg.Entry.Nodes) != 3 {
		t.Fatalf("entry block has %d nodes, want 3", len(cfg.Entry.Nodes))
	}
}

func TestCFGIfBranchesRecorded(t *testing.T) {
	cfg := parseFuncBody(t, "x := 1\nif x > 0 {\n x = 2\n} else {\n x = 3\n}\n_ = x")
	// The block ending in the condition forks to two distinct arms, and
	// both arms join before _ = x.
	cond := cfg.Entry
	if _, ok := cond.Nodes[len(cond.Nodes)-1].(*ast.BinaryExpr); !ok {
		t.Fatalf("entry block ends in %T, want the if condition", cond.Nodes[len(cond.Nodes)-1])
	}
	if len(cond.Succs) != 2 || cond.Succs[0] == cond.Succs[1] {
		t.Fatalf("condition block has successors %v, want two distinct arms", cond.Succs)
	}
	then, els := cond.Succs[0], cond.Succs[1]
	if len(then.Succs) != 1 || len(els.Succs) != 1 || then.Succs[0] != els.Succs[0] {
		t.Fatal("the arms do not meet at one join block")
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	cfg := parseFuncBody(t, "for i := 0; i < 3; i++ {\n _ = i\n}")
	// Some block reachable from entry must have a back edge (a successor
	// already on the path): detect any cycle among reachable blocks.
	seen := reachable(cfg)
	cycle := false
	var walk func(*Block, map[*Block]bool)
	walk = func(cur *Block, onPath map[*Block]bool) {
		if cycle {
			return
		}
		if onPath[cur] {
			cycle = true
			return
		}
		onPath[cur] = true
		for _, s := range cur.Succs {
			walk(s, onPath)
		}
		delete(onPath, cur)
	}
	walk(cfg.Entry, map[*Block]bool{})
	if !cycle {
		t.Fatal("for loop produced an acyclic CFG")
	}
	if !seen[cfg.Exit] {
		t.Fatal("bounded loop cannot reach exit")
	}
}

func TestCFGDeadCodeUnreachable(t *testing.T) {
	cfg := parseFuncBody(t, "return\nx := 1\n_ = x")
	seen := reachable(cfg)
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok && seen[b] {
				t.Fatalf("dead assignment %v reachable", as)
			}
		}
	}
}

func TestCFGSelectCommMarked(t *testing.T) {
	cfg := parseFuncBody(t, "ch := make(chan int, 1)\ndone := make(chan int)\nselect {\ncase v := <-ch:\n _ = v\ncase done <- 1:\n}")
	if len(cfg.SelectComm) != 2 {
		t.Fatalf("marked %d select comm statements, want 2", len(cfg.SelectComm))
	}
	// The select dispatch node itself must sit in some block.
	found := false
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.SelectStmt); ok {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("select dispatch node missing from CFG")
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	cfg := parseFuncBody(t, "x := 1\nif x > 0 {\n panic(\"boom\")\n}\n_ = x")
	// The node after the if must be reachable only via the non-panicking
	// arm; the panic block must edge straight to exit.
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			if call, ok := es.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					if len(b.Succs) != 1 || b.Succs[0] != cfg.Exit {
						t.Fatalf("panic block succs = %v, want exit only", b.Succs)
					}
				}
			}
		}
	}
}

func TestCFGDefersCollected(t *testing.T) {
	cfg := parseFuncBody(t, "defer func() {}()\nif true {\n defer func() {}()\n}")
	defers := 0
	for b := range reachable(cfg) {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				defers++
			}
		}
	}
	if defers != 2 {
		t.Fatalf("found %d reachable defer nodes, want 2", defers)
	}
}

func TestCFGLabeledBreakContinue(t *testing.T) {
	cfg := parseFuncBody(t, `
outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if j == 1 {
				continue outer
			}
			if j == 2 {
				break outer
			}
		}
	}
	return`)
	if !reachable(cfg)[cfg.Exit] {
		t.Fatal("labeled loops cannot reach exit")
	}
}

// TestSolveForwardMustFact runs the canonical must-analysis shape: a
// boolean fact set in only one branch must not survive the join, and a
// fact set before a loop must survive it.
func TestSolveForwardMustFact(t *testing.T) {
	cfg := parseFuncBody(t, `
	a := 0
	if a > 0 {
		a = 1 // set
	}
	_ = a
	for i := 0; i < 2; i++ {
		a = 1 // set inside loop
	}
	a = 2`)
	isSet := func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return false
		}
		lit, ok := as.Rhs[0].(*ast.BasicLit)
		return ok && lit.Value == "1"
	}
	res := SolveForward(cfg, false,
		func(b *Block, in bool) bool {
			for _, n := range b.Nodes {
				if isSet(n) {
					in = true
				}
			}
			return in
		},
		func(a, b bool) bool { return a && b },
		func(a, b bool) bool { return a == b },
	)
	// The final assignment a = 2 must still see in=false: neither the
	// one-armed branch nor the may-skip loop establishes the fact.
	for _, b := range cfg.Blocks {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		for _, n := range b.Nodes {
			if as, isAssign := n.(*ast.AssignStmt); isAssign {
				if lit, okL := as.Rhs[0].(*ast.BasicLit); okL && lit.Value == "2" {
					if in {
						t.Fatal("must-fact leaked through a one-armed branch and a zero-iteration loop")
					}
					return
				}
			}
			if isSet(n) {
				in = true
			}
		}
	}
	t.Fatal("final assignment not found")
}

// TestInspectNodeScoping: range headers expose only their governing
// parts, and function literals are skipped.
func TestInspectNodeScoping(t *testing.T) {
	cfg := parseFuncBody(t, `
	xs := []int{1}
	for _, v := range xs {
		bodyCall(v)
	}
	f := func() { litCall() }
	f()`)
	var names []string
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			InspectNode(n, func(c ast.Node) bool {
				if call, ok := c.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						names = append(names, id.Name)
					}
				}
				return true
			})
		}
	}
	joined := strings.Join(names, ",")
	if strings.Contains(joined, "litCall") {
		t.Fatalf("InspectNode descended into a function literal: %s", joined)
	}
	// bodyCall lives in the loop-body block and must be seen exactly once
	// across all blocks (no double visit via the range header).
	count := strings.Count(joined, "bodyCall")
	if count != 1 {
		t.Fatalf("bodyCall visited %d times, want 1 (%s)", count, joined)
	}
}
