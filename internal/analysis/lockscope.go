package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockscopeAnalyzer enforces the serving plane's lock-discipline
// invariant: no blocking operation — channel send/receive, select
// without default, net.Conn I/O, time.Sleep, sync.WaitGroup.Wait — while
// a sync.Mutex/RWMutex is held. Blocking under a lock is exactly
// how the PR 7 dispatcher Submit/Close hang arose (Close held the mutex
// the delivery path needed while waiting on in-flight work), and on the
// session hot path it turns one slow peer into a convoy for every
// request sharing the lock.
//
// Implementation: a forward may-analysis over the shared CFG. The fact
// is the set of held-lock receiver expressions (keyed by source text, so
// s.mu.Lock / s.mu.Unlock pair up); Lock/RLock/TryLock add, Unlock /
// RUnlock remove, and facts union at joins — "possibly held" is the
// right polarity for a hang detector. `defer mu.Unlock()` does not clear
// the fact: the lock stays held until return, so later blocking
// operations in the same function are still convoy points. Statements
// that are a select case's communication clause are exempt (the select
// itself is the single blocking node, and it is only flagged when it has
// no default).
var LockscopeAnalyzer = &Analyzer{
	Name: "lockscope",
	Doc:  "no blocking operations (channel ops, select, net I/O, time.Sleep, Wait) while holding a sync.Mutex/RWMutex",
	Run:  runLockscope,
}

func runLockscope(pass *Pass) error {
	if !concurrencyCriticalPackages[pkgBase(pass.Pkg.Path)] {
		return nil
	}
	for _, file := range pass.Pkg.Files {
		for _, u := range funcUnits(file) {
			lockscopeFunc(pass, u)
		}
	}
	return nil
}

// lockSet is the may-held lock fact: receiver source text -> held.
type lockSet map[string]bool

func (s lockSet) clone() lockSet {
	c := make(lockSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func lockSetEqual(a, b lockSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func lockSetUnion(a, b lockSet) lockSet {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	u := a.clone()
	for k := range b {
		u[k] = true
	}
	return u
}

func (s lockSet) names() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

func lockscopeFunc(pass *Pass, u funcUnit) {
	cfg := BuildCFG(u.body)
	if cfg == nil {
		return
	}
	info := pass.Pkg.Info
	transfer := func(b *Block, in lockSet) lockSet {
		for _, n := range b.Nodes {
			in = lockTransfer(info, cfg, n, in, nil)
		}
		return in
	}
	res := SolveForward(cfg, lockSet{}, transfer, lockSetUnion, lockSetEqual)
	// Replay reachable blocks to attribute each blocking node to the
	// exact lock set held there.
	for _, b := range cfg.Blocks {
		in, reachable := res.In[b]
		if !reachable {
			continue
		}
		for _, n := range b.Nodes {
			in = lockTransfer(info, cfg, n, in, func(pos token.Pos, what string, held lockSet) {
				pass.Reportf(pos, "%s while holding %s: a blocked holder convoys every request sharing the lock — release before blocking, or use a non-blocking/deadline-aware form (the PR 7 dispatcher hang class)", what, held.names())
			})
		}
	}
}

// lockTransfer applies one CFG node to the held-lock fact; when report is
// non-nil, blocking operations under a non-empty fact are reported.
func lockTransfer(info *types.Info, cfg *CFG, n ast.Node, in lockSet, report func(token.Pos, string, lockSet)) lockSet {
	// A select case's communication clause executes only once the select
	// has committed: not independently blocking (the SelectStmt dispatch
	// node carries the blocking semantics).
	if st, ok := n.(ast.Stmt); ok && cfg.SelectComm[st] {
		return in
	}
	if _, ok := n.(*ast.DeferStmt); ok {
		// A deferred unlock releases at return, not here: the lock remains
		// held for everything that follows in this function. A deferred
		// blocking call runs after returns, outside the replayed path
		// state, so it is not checked here either.
		return in
	}
	InspectNode(n, func(c ast.Node) bool {
		switch cn := c.(type) {
		case *ast.CallExpr:
			if key, op, ok := lockOp(info, cn); ok {
				if op > 0 {
					if !in[key] {
						in = in.clone()
						in[key] = true
					}
				} else if in[key] {
					in = in.clone()
					delete(in, key)
				}
				return true
			}
			if report != nil && len(in) > 0 {
				if what := blockingCall(info, cn); what != "" {
					report(cn.Pos(), what, in)
				}
			}
		case *ast.SendStmt:
			if report != nil && len(in) > 0 {
				report(cn.Arrow, "channel send", in)
			}
		case *ast.UnaryExpr:
			if cn.Op == token.ARROW && report != nil && len(in) > 0 {
				report(cn.OpPos, "channel receive", in)
			}
		case *ast.SelectStmt:
			if report != nil && len(in) > 0 && !selectHasDefault(cn) {
				report(cn.Select, "select with no default clause", in)
			}
		case *ast.RangeStmt:
			if report != nil && len(in) > 0 && isChanType(typeOf(info, cn.X)) {
				report(cn.For, "range over channel", in)
			}
		}
		return true
	})
	return in
}

// lockOp classifies a call as a mutex acquire (+1) or release (-1),
// returning the receiver's source text as the lock key.
func lockOp(info *types.Info, call *ast.CallExpr) (key string, op int, ok bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	recv := callReceiver(call)
	if recv == nil {
		return "", 0, false
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return exprString(recv), 1, true
	case "Unlock", "RUnlock":
		return exprString(recv), -1, true
	}
	return "", 0, false
}

// blockingCall names a call that can block indefinitely, or returns "".
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		if name == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		if name == "Wait" {
			return "sync Wait"
		}
	case "net":
		switch name {
		case "Read", "Write", "Accept", "Dial", "DialTimeout":
			return "net I/O (" + name + ")"
		}
	}
	return ""
}
