package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// MetricnamesAnalyzer enforces the observability naming contract.
//
// Invariant: metric names are the API between the serving plane and its
// dashboards. Two rules keep them stable and conformant:
//
//  1. Names passed to Registry.Counter/Gauge/GaugeFunc/Histogram (and
//     the Live forms of Counter and Histogram) are lowercase dotted
//     ("rounds.served", "stage.<name>.wait") — the JSON snapshot serves
//     them verbatim as the keys its readers (ppbench top, the CI checks)
//     look up, so a stray uppercase or exotic character silently misses
//     every reader.
//  2. One metric name has one type. The JSON snapshot files each metric
//     under its type's section (counters, gauges, histograms), so
//     registering "queue.depth" as a counter in one place and a gauge in
//     another splits one signal into two unrelated keys, and a reader of
//     either section sees half of it; this catches it at lint time,
//     whole-program.
//
// (CostStats staying in step with its costFields table is
// obs.TestCostFieldsCoverStruct's, by reflection.)
func NewMetricnamesAnalyzer() *Analyzer {
	state := &metricnamesState{registrations: map[string]metricReg{}}
	return &Analyzer{
		Name:   "metricnames",
		Doc:    "registry metric names must be lowercase dotted, one type per name",
		Run:    state.run,
		Finish: state.finish,
	}
}

// metricMethods maps Registry method names to their metric family type.
var metricMethods = map[string]string{
	"Counter":       "counter",
	"LiveCounter":   "counter", // the same object as Counter's, with a window
	"Gauge":         "gauge",
	"GaugeFunc":     "gauge", // same snapshot section as Gauge
	"Histogram":     "histogram",
	"LiveHistogram": "histogram",
}

// metricNameRe is the full-name grammar: lowercase dotted components of
// letters, digits, and underscores.
var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$`)

// metricFragmentRe is the relaxed grammar for string literals inside
// concatenations ("stage." + name + ".wait"): the same character set,
// with leading/trailing dots allowed since the neighbour supplies the
// missing component.
var metricFragmentRe = regexp.MustCompile(`^[a-z0-9_.]+$`)

type metricReg struct {
	kind string
	pos  token.Position
}

type metricnamesState struct {
	registrations map[string]metricReg // literal name -> first site
	conflicts     []Diagnostic
}

func (s *metricnamesState) run(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind, ok := metricMethods[sel.Sel.Name]
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
			if !ok || !isRegistryMethod(fn) {
				return true
			}
			s.checkNameArg(pass, kind, call.Args[0])
			return true
		})
	}
	return nil
}

// isRegistryMethod reports whether fn is a method on a type named
// Registry (matched structurally so fixtures under synthetic import
// paths exercise the same code as ppstream/internal/obs).
func isRegistryMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// checkNameArg validates the metric-name expression: a plain literal
// must match the full grammar; literal fragments of a concatenation must
// match the relaxed grammar. Fully dynamic names pass (nothing to check
// statically).
func (s *metricnamesState) checkNameArg(pass *Pass, kind string, arg ast.Expr) {
	switch e := arg.(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return
		}
		name, err := strconv.Unquote(e.Value)
		if err != nil {
			return
		}
		if !metricNameRe.MatchString(name) {
			pass.Reportf(e.Pos(), "metric name %q is not lowercase dotted (want e.g. %q): the JSON snapshot serves it verbatim as the key its readers look up", name, suggestMetricName(name))
			return
		}
		s.recordRegistration(pass, kind, name, e.Pos())
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return
		}
		for _, lit := range stringLits(e) {
			name, err := strconv.Unquote(lit.Value)
			if err != nil || name == "" {
				continue
			}
			if !metricFragmentRe.MatchString(name) {
				pass.Reportf(lit.Pos(), "metric name fragment %q contains characters outside [a-z0-9_.]: composed metric names must stay lowercase dotted", name)
			}
		}
	}
}

// suggestMetricName lowercases and strips a rejected name into the
// nearest conformant spelling for the diagnostic.
func suggestMetricName(name string) string {
	var b strings.Builder
	for i, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r == '.', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('n')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return strings.Trim(b.String(), "._")
}

// stringLits collects the string literals of a concatenation tree.
func stringLits(e ast.Expr) []*ast.BasicLit {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind == token.STRING {
			return []*ast.BasicLit{v}
		}
	case *ast.BinaryExpr:
		if v.Op == token.ADD {
			return append(stringLits(v.X), stringLits(v.Y)...)
		}
	case *ast.ParenExpr:
		return stringLits(v.X)
	}
	return nil
}

// recordRegistration tracks literal-name registrations whole-program and
// queues a conflict diagnostic when a name reappears with another type.
func (s *metricnamesState) recordRegistration(pass *Pass, kind, name string, pos token.Pos) {
	position := pass.Pkg.Fset.Position(pos)
	prev, seen := s.registrations[name]
	if !seen {
		s.registrations[name] = metricReg{kind: kind, pos: position}
		return
	}
	if prev.kind != kind {
		s.conflicts = append(s.conflicts, Diagnostic{
			Pos:  position,
			Rule: "metricnames",
			Msg: fmt.Sprintf("metric %q registered as %s here but as %s at %s:%d: one name must have one type, or the JSON snapshot files it under two sections",
				name, kind, prev.kind, prev.pos.Filename, prev.pos.Line),
		})
	}
}

func (s *metricnamesState) finish(report func(Diagnostic)) error {
	sort.Slice(s.conflicts, func(i, j int) bool {
		a, b := s.conflicts[i].Pos, s.conflicts[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, d := range s.conflicts {
		report(d)
	}
	return nil
}
