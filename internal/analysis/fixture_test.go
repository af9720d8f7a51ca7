package analysis

import (
	"path/filepath"
	"regexp"
	"slices"
	"sync"
	"testing"
)

// Fixture tests: each analyzer runs over a standalone package under
// testdata/, and the diagnostics are matched line-exactly against
// `// want "regex"` comments in the fixture sources. Every diagnostic
// must match a want on its own line, and every want must be hit.

var (
	loaderOnce sync.Once
	fixLoader  *Loader
	loaderErr  error
)

// fixturePkg loads testdata/<sub> as a standalone package with a
// synthetic import path. The loader is shared across tests so the std
// dependency closure (math/big, net, ...) is type-checked
// once.
func fixturePkg(t *testing.T, sub, importPath string) *Package {
	t.Helper()
	loaderOnce.Do(func() { fixLoader, loaderErr = NewLoader("") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	pkg, err := fixLoader.LoadDir(filepath.Join("testdata", sub), importPath)
	if err != nil {
		t.Fatalf("LoadDir(testdata/%s): %v", sub, err)
	}
	if len(pkg.TypeErrors) > 0 {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture type error: %v", terr)
		}
		t.Fatalf("fixture testdata/%s does not type-check", sub)
	}
	return pkg
}

var wantRe = regexp.MustCompile(`want "([^"]*)"`)

type wantDiag struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants indexes every `// want "regex"` comment by file and line.
func collectWants(t *testing.T, pkg *Package) map[string]map[int][]*wantDiag {
	t.Helper()
	wants := map[string]map[int][]*wantDiag{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					lines := wants[pos.Filename]
					if lines == nil {
						lines = map[int][]*wantDiag{}
						wants[pos.Filename] = lines
					}
					lines[pos.Line] = append(lines[pos.Line], &wantDiag{re: re})
				}
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer over one fixture package through the
// full driver (including //pplint:ignore filtering) and diffs the
// diagnostics against the want comments.
func checkFixture(t *testing.T, pkg *Package, a *Analyzer) {
	t.Helper()
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("Run(%s): %v", a.Name, err)
	}
	wants := collectWants(t, pkg)
	for _, d := range diags {
		matched := false
		for _, w := range wants[d.Pos.Filename][d.Pos.Line] {
			if w.re.MatchString(d.Msg) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, lines := range wants {
		for line, ws := range lines {
			for _, w := range ws {
				if !w.matched {
					t.Errorf("%s:%d: expected a %s diagnostic matching %q, got none", file, line, a.Name, w.re)
				}
			}
		}
	}
}

// ruleDiags runs a over pkg and returns a's own diagnostics: a fixture
// loaded where its rule does not apply leaves its ignore directives
// suppressing nothing, which the driver reports too.
func ruleDiags(t *testing.T, pkg *Package, a *Analyzer) []Diagnostic {
	t.Helper()
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	return slices.DeleteFunc(diags, func(d Diagnostic) bool { return d.Rule != a.Name })
}

func TestCryptorandFixture(t *testing.T) {
	// The fixture reproduces the original obfuscate.NewRandom bug: a
	// crypto/rand seed squeezed through a 64-bit math/rand generator.
	checkFixture(t, fixturePkg(t, "cryptorand", "fix/obfuscate"), CryptorandAnalyzer)
}

func TestCryptorandSkipsNonCriticalPackages(t *testing.T) {
	// Same sources under a non-security-critical import path: no
	// diagnostics at all.
	pkg := fixturePkg(t, "cryptorand", "fix/benchutil")
	if diags := ruleDiags(t, pkg, CryptorandAnalyzer); len(diags) != 0 {
		t.Fatalf("cryptorand fired outside security-critical packages: %v", diags)
	}
}

func TestBigintaliasFixture(t *testing.T) {
	checkFixture(t, fixturePkg(t, "bigintalias", "fix/keys"), BigintaliasAnalyzer)
}

func TestErrauditFixture(t *testing.T) {
	checkFixture(t, fixturePkg(t, "erraudit", "fix/wire"), ErrauditAnalyzer)
}

func TestIgnoreDirective(t *testing.T) {
	// Three identical violations; two carry //pplint:ignore (named-rule
	// and "all" forms, trailing and standalone placement) and must be
	// suppressed, the third must still fire. A directive that suppressed
	// nothing although erraudit ran, and one naming an unregistered rule,
	// are reported where they stand.
	checkFixture(t, fixturePkg(t, "ignore", "fix/ignoredemo"), ErrauditAnalyzer)
}

func TestMetricnamesFixture(t *testing.T) {
	// The fixture covers both rules: literal and composed name grammar,
	// and cross-type reuse of one name.
	checkFixture(t, fixturePkg(t, "metricnames", "fix/obs"), NewMetricnamesAnalyzer())
}

func TestLockscopeFixture(t *testing.T) {
	// BadResolve reproduces the pendingEdge receive-under-mutex and
	// BadClose/BadSubmit the pre-PR 7 dispatcher Submit/Close hang;
	// select-with-default and post-unlock blocking stay silent.
	checkFixture(t, fixturePkg(t, "lockscope", "fix/lockscope/stream"), LockscopeAnalyzer)
}

func TestLockscopeSkipsNonConcurrencyPackages(t *testing.T) {
	pkg := fixturePkg(t, "lockscope", "fix/lockscope/benchutil")
	if diags := ruleDiags(t, pkg, LockscopeAnalyzer); len(diags) != 0 {
		t.Fatalf("lockscope fired outside concurrency-critical packages: %v", diags)
	}
}

func TestCtxdeadlineFixture(t *testing.T) {
	checkFixture(t, fixturePkg(t, "ctxdeadline", "fix/ctxdeadline/protocol"), CtxdeadlineAnalyzer)
}
