package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// MetricnamesAnalyzer enforces the observability naming contract.
//
// Invariant: metric names are the API between the serving plane and its
// dashboards. Three rules keep them stable and conformant:
//
//  1. Names passed to Registry.Counter/Gauge/GaugeFunc/Histogram (and
//     the Live forms of Counter and Histogram) are lowercase dotted
//     ("rounds.served", "stage.<name>.wait") — the JSON snapshot serves
//     them verbatim and the Prometheus path derives
//     "ppstream_rounds_served" mechanically, so a stray uppercase or
//     exotic character silently forks the two expositions.
//  2. One metric name has one type. Registering "queue.depth" as a
//     counter in one place and a gauge in another yields conflicting
//     Prometheus TYPE families — WritePrometheus rejects the scrape at
//     runtime; this catches it at lint time, whole-program.
//  3. obs.CostStats stays in lock-step with its costFields table: every
//     struct field carries a lowercase json tag, and the tag set exactly
//     matches the names enumerated in costFields — the single source of
//     truth both the JSON and Prometheus cost expositions render from. A
//     field added to the struct but not the table would vanish from
//     /metrics without any test noticing the asymmetry.
func NewMetricnamesAnalyzer() *Analyzer {
	state := &metricnamesState{registrations: map[string]metricReg{}}
	return &Analyzer{
		Name:   "metricnames",
		Doc:    "registry metric names must be lowercase dotted, one type per name, and CostStats must match costFields",
		Run:    state.run,
		Finish: state.finish,
	}
}

// metricMethods maps Registry method names to their metric family type.
var metricMethods = map[string]string{
	"Counter":       "counter",
	"LiveCounter":   "counter", // the same object as Counter's, with a window
	"Gauge":         "gauge",
	"GaugeFunc":     "gauge", // same exposition family as Gauge
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
	s.checkCostStats(pass)
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
			pass.Reportf(e.Pos(), "metric name %q is not lowercase dotted (want e.g. %q): the JSON snapshot serves it verbatim and the Prometheus name is derived mechanically", name, suggestMetricName(name))
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
			Msg: fmt.Sprintf("metric %q registered as %s here but as %s at %s:%d: one name must have one Prometheus type family",
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

// checkCostStats runs only in a package declaring both CostStats and
// costFields (obs and its fixtures): the struct's json-tag set must
// exactly match the names enumerated in the costFields table.
func (s *metricnamesState) checkCostStats(pass *Pass) {
	scope := pass.Pkg.Types.Scope()
	statsObj := scope.Lookup("CostStats")
	fieldsObj := scope.Lookup("costFields")
	if statsObj == nil || fieldsObj == nil {
		return
	}
	st, ok := statsObj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}

	tagNames := map[string]token.Pos{}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue
		}
		tag := reflect.StructTag(st.Tag(i)).Get("json")
		name := strings.Split(tag, ",")[0]
		if name == "" || name == "-" {
			pass.Reportf(f.Pos(), "CostStats field %s has no json tag: the span-store records and the /metrics JSON would drop or misname it", f.Name())
			continue
		}
		if !metricNameRe.MatchString(name) {
			pass.Reportf(f.Pos(), "CostStats field %s json tag %q is not a lowercase metric-name component", f.Name(), name)
			continue
		}
		tagNames[name] = f.Pos()
	}

	tableNames := costFieldsTableNames(pass)
	for name, pos := range tagNames {
		if _, ok := tableNames[name]; !ok {
			pass.Reportf(pos, "CostStats field with json tag %q is missing from the costFields table: it will not reach the cost.* registry counters or the Prometheus exposition", name)
		}
	}
	for name, pos := range tableNames {
		if _, ok := tagNames[name]; !ok {
			pass.Reportf(pos, "costFields entry %q has no matching CostStats json tag: the table and the struct have diverged", name)
		}
	}
}

// costFieldsTableNames extracts the Name literals of the costFields
// composite literal from the package AST.
func costFieldsTableNames(pass *Pass) map[string]token.Pos {
	names := map[string]token.Pos{}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "costFields" || len(vs.Values) != 1 {
					continue
				}
				outer, ok := vs.Values[0].(*ast.CompositeLit)
				if !ok {
					continue
				}
				for _, elt := range outer.Elts {
					entry, ok := elt.(*ast.CompositeLit)
					if !ok {
						continue
					}
					for _, field := range entry.Elts {
						kv, ok := field.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := kv.Key.(*ast.Ident)
						if !ok || key.Name != "Name" {
							continue
						}
						lit, ok := kv.Value.(*ast.BasicLit)
						if !ok || lit.Kind != token.STRING {
							continue
						}
						if name, err := strconv.Unquote(lit.Value); err == nil {
							names[name] = lit.Pos()
						}
					}
				}
			}
		}
	}
	return names
}
