package analysis

import (
	"go/ast"
	"go/types"
)

// ErrauditAnalyzer flags discarded error returns on the wire and crypto
// layers: writes to the wire writer's destinations, a net.Conn or an
// io.Writer (a frame that failed part-way leaves the stream unframed, and
// a sender that never learns it keeps writing frames the peer misparses —
// the edge's sticky send error exists to catch exactly that), and
// crypto/rand reads (a failed read silently downgrades randomness to
// zeros). Only fully discarded results (expression statements, go/defer)
// are flagged; an explicit `_ =` assignment is a visible decision and the
// per-line //pplint:ignore directive documents intentional cases.
var ErrauditAnalyzer = &Analyzer{
	Name: "erraudit",
	Doc:  "unchecked errors from net.Conn and io.Writer writes (the wire writer's destinations) and crypto/rand reads",
	Run:  runErraudit,
}

func runErraudit(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, _ = st.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call = st.Call
			case *ast.DeferStmt:
				call = st.Call
			default:
				return true
			}
			if call == nil {
				return true
			}
			if kind := auditedCall(pass.Pkg.Info, call); kind != "" {
				pass.Reportf(call.Pos(), "unchecked error from %s: a silent failure here desynchronizes the wire stream or degrades randomness — handle the error or discard it explicitly", kind)
			}
			return true
		})
	}
	return nil
}

// auditedCall classifies a call as one of the audited error sources,
// returning a human-readable name or "".
func auditedCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "net":
		if name == "Write" {
			return "net.Conn.Write"
		}
	case "io":
		// Only through an io.Writer itself: a hash.Hash, say, inherits
		// Write from io.Writer but documents that it never fails.
		if t, ok := typeOf(info, callReceiver(call)).(*types.Named); ok && name == "Write" && t.Obj().Pkg() == fn.Pkg() && t.Obj().Name() == "Writer" {
			return "io.Writer.Write"
		}
	case "crypto/rand":
		if name == "Read" {
			return "rand.Read"
		}
	}
	return ""
}
