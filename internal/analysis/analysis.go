// Package analysis is pplint's repo-specific static-analysis framework:
// a stdlib-only (go/ast, go/parser, go/token, go/types, go/importer)
// analyzer driver that walks every package of the module and enforces
// the invariants PP-Stream's security and liveness argument rests on but
// neither the compiler nor the tests check — cryptographic randomness in
// security-critical packages, big.Int aliasing hygiene, audited errors on
// the wire writer, metric-name hygiene, no blocking under a mutex, and
// request-path deadline propagation. Each rule is kept only while a
// mutation of the production code it guards makes it fire and no
// ordinary test fails first (TestMutationRows, DESIGN §7).
//
// Each analyzer is a self-contained pass producing position-accurate
// diagnostics. A diagnostic on a line carrying (or directly below) a
// "//pplint:ignore rule [reason]" comment is suppressed; a directive that
// names no registered rule, or that suppressed nothing in a run of every
// rule it names, is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at an exact source position.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:  p.Pkg.Fset.Position(pos),
		Rule: p.Analyzer.Name,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one self-contained invariant check. Run is invoked once per
// package; Finish, when non-nil, is invoked once after every package has
// been visited (for whole-program checks like one type per metric name).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// Finish reports whole-program diagnostics after all Run calls.
	Finish func(report func(Diagnostic)) error
}

// ignoreRule is the Rule of the driver's own diagnostics about
// //pplint:ignore directives. They cannot be suppressed.
const ignoreRule = "ignore"

// Run applies every analyzer to every package, filters diagnostics
// suppressed by //pplint:ignore directives, reports directives that name
// an unregistered rule or that suppressed nothing although every rule
// they name ran, and returns the diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	ignores := &ignoreIndex{byLine: map[string]map[int][]*directive{}}
	for _, pkg := range pkgs {
		ignores.addPackage(pkg)
	}
	var diags []Diagnostic
	report := func(d Diagnostic) {
		if !ignores.suppressed(d) {
			diags = append(diags, d)
		}
	}
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Pkg: pkg, report: report}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		if err := a.Finish(report); err != nil {
			return nil, fmt.Errorf("analysis: %s finish: %w", a.Name, err)
		}
	}
	diags = append(diags, ignores.audit(analyzers)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags, nil
}

// ignoreDirective is the comment prefix of the per-line escape hatch:
//
//	//pplint:ignore rule1,rule2 optional reason
//
// The directive suppresses the named rules ("all" suppresses every rule)
// on the directive's own line and on the line directly below it, covering
// both trailing-comment and standalone-comment placement.
const ignoreDirective = "pplint:ignore"

// directive is one //pplint:ignore comment and whether it suppressed
// anything in this run.
type directive struct {
	pos   token.Position
	rules []string
	used  bool
}

// ignoreIndex holds a run's directives, and maps filename -> line -> the
// directives covering that line.
type ignoreIndex struct {
	dirs   []*directive
	byLine map[string]map[int][]*directive
}

func (ix *ignoreIndex) addPackage(pkg *Package) {
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, ignoreDirective)
				if !ok {
					continue
				}
				d := &directive{pos: pkg.Fset.Position(c.Pos()), rules: []string{"all"}}
				if fields := strings.Fields(rest); len(fields) > 0 {
					d.rules = strings.Split(fields[0], ",")
				}
				ix.dirs = append(ix.dirs, d)
				lines := ix.byLine[d.pos.Filename]
				if lines == nil {
					lines = map[int][]*directive{}
					ix.byLine[d.pos.Filename] = lines
				}
				for _, line := range []int{d.pos.Line, d.pos.Line + 1} {
					lines[line] = append(lines[line], d)
				}
			}
		}
	}
}

// suppressed reports whether a directive covers d, and marks every such
// directive used.
func (ix *ignoreIndex) suppressed(d Diagnostic) bool {
	hit := false
	for _, dir := range ix.byLine[d.Pos.Filename][d.Pos.Line] {
		if slices.Contains(dir.rules, d.Rule) || slices.Contains(dir.rules, "all") {
			dir.used = true
			hit = true
		}
	}
	return hit
}

// audit reports the directives that name an unregistered rule, and those
// that suppressed nothing in a run of every rule they name ("all" names
// the whole registry): both outlive the code they were written for.
func (ix *ignoreIndex) audit(ran []*Analyzer) []Diagnostic {
	known, didRun := map[string]bool{}, map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range ran {
		didRun[a.Name] = true
	}
	var out []Diagnostic
	for _, dir := range ix.dirs {
		allRan := true
		for _, r := range dir.rules {
			switch {
			case r == "all":
				allRan = allRan && len(didRun) == len(known)
			case !known[r]:
				allRan = false
				out = append(out, Diagnostic{Pos: dir.pos, Rule: ignoreRule,
					Msg: fmt.Sprintf("//pplint:ignore names %q, which is not a registered rule: delete the directive or fix the name", r)})
			default:
				allRan = allRan && didRun[r]
			}
		}
		if allRan && !dir.used {
			out = append(out, Diagnostic{Pos: dir.pos, Rule: ignoreRule,
				Msg: fmt.Sprintf("//pplint:ignore %s suppressed nothing: the code it excused has changed, so delete the directive", strings.Join(dir.rules, ","))})
		}
	}
	return out
}

// enclosingFuncName returns the name of the function declaration covering
// pos in file, or "" at file scope.
func enclosingFuncName(file *ast.File, pos token.Pos) string {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd.Name.Name
		}
	}
	return ""
}

// securityCriticalPackages are the packages where the paper's security
// argument lives: Paillier encryption (§III-B), permutation obfuscation
// (§III-C/D), the cross-party protocol, and the garbled-circuit baseline.
var securityCriticalPackages = map[string]bool{
	"paillier":  true,
	"obfuscate": true,
	"protocol":  true,
	"garble":    true,
}

// pkgBase returns the last element of an import path.
func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// exprString renders an expression for diagnostics.
func exprString(e ast.Expr) string { return types.ExprString(e) }

// Analyzers returns the full pplint suite, in registration order. Each
// call returns fresh instances of the analyzers that keep whole-program
// state.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		CryptorandAnalyzer,
		BigintaliasAnalyzer,
		ErrauditAnalyzer,
		NewMetricnamesAnalyzer(),
		LockscopeAnalyzer,
		CtxdeadlineAnalyzer,
	}
}
