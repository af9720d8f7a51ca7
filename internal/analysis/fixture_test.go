package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
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
// dependency closure (math/big, encoding/gob, net, ...) is type-checked
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

func TestCryptorandFixture(t *testing.T) {
	// The fixture reproduces the original obfuscate.NewRandom bug: a
	// crypto/rand seed squeezed through a 64-bit math/rand generator.
	checkFixture(t, fixturePkg(t, "cryptorand", "fix/obfuscate"), CryptorandAnalyzer)
}

func TestCryptorandSkipsNonCriticalPackages(t *testing.T) {
	// Same sources under a non-security-critical import path: no
	// diagnostics at all.
	pkg := fixturePkg(t, "cryptorand", "fix/benchutil")
	diags, err := Run([]*Package{pkg}, []*Analyzer{CryptorandAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("cryptorand fired outside security-critical packages: %v", diags)
	}
}

func TestRerandomizeFixture(t *testing.T) {
	// The fixture reproduces the PR 2 unblinded-row pattern (BadDot) and
	// a branch that leaks an unblinded early return (BranchDot).
	// It also holds the row exemption's good side: an unblinded Rows beside
	// a blinding Pack, and envelopes filled from Pack or not.
	checkFixture(t, fixturePkg(t, "rerandomize", "fix/paillier"), RerandomizeAnalyzer)
}

func TestRerandomizeRowExemptionNeedsBlindingPack(t *testing.T) {
	checkFixture(t, fixturePkg(t, "rerandomize_nopack", "fix/nopack/paillier"), RerandomizeAnalyzer)
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
	// suppressed, the third must still fire.
	checkFixture(t, fixturePkg(t, "ignore", "fix/ignoredemo"), ErrauditAnalyzer)
}

func TestMetricnamesFixture(t *testing.T) {
	// The fixture covers all three rules: literal and composed name
	// grammar, cross-type reuse of one name, and CostStats/costFields
	// divergence (missing tag, orphaned table entry).
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
	diags, err := Run([]*Package{pkg}, []*Analyzer{LockscopeAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("lockscope fired outside concurrency-critical packages: %v", diags)
	}
}

func TestPairedreleaseFixture(t *testing.T) {
	// LeakOnComplete reproduces the PR 3 permutation-state leak (Forget
	// never reached on the completion path) and EvictWithoutRelease the
	// PR 7 shed-slot-at-eviction bug; guarded error returns, deferred
	// releases, and branch-alternative releases stay silent.
	checkFixture(t, fixturePkg(t, "pairedrelease", "fix/pairedrelease/protocol"), PairedreleaseAnalyzer)
}

func TestGoroleakFixture(t *testing.T) {
	// BadReader reproduces the pre-PR 7 dispatcher reader (exit only via
	// results close ⇒ Submit/Close hang); done-select, ctx, range,
	// comma-ok, WaitGroup, and one-shot goroutines stay silent.
	checkFixture(t, fixturePkg(t, "goroleak", "fix/goroleak/stream"), GoroleakAnalyzer)
}

func TestAtomicfieldFixture(t *testing.T) {
	checkFixture(t, fixturePkg(t, "atomicfield", "fix/atomicfield/obs"), NewAtomicfieldAnalyzer())
}

func TestCtxdeadlineFixture(t *testing.T) {
	checkFixture(t, fixturePkg(t, "ctxdeadline", "fix/ctxdeadline/protocol"), CtxdeadlineAnalyzer)
}

func TestWirecompatFixture(t *testing.T) {
	// The fixture lock declares Factor as int64 (source retyped it to
	// int32), a removed field Hello.Gone, and a removed struct Dropped.
	// Hello also carries two ADDITIVE fields the lock predates (Profile,
	// Plan — the backend-negotiation evolution); those must not fire.
	// Frame is a struct of the versioned format whose field set changed
	// all three ways while WireVersion stayed at the locked 3.
	pkg := fixturePkg(t, "wirecompat", "fix/protocol")
	a := NewWirecompatAnalyzer(fixtureWireConfig(filepath.Join("testdata", "wirecompat", "wire.lock")))
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	type expect struct {
		file    string
		msgPart string
	}
	expects := []expect{
		{filepath.Join("testdata", "wirecompat", "fix.go"), "Hello.Factor retyped from int64 to int32"},
		{filepath.Join("testdata", "wirecompat", "wire.lock"), "Hello.Gone (string) was removed"},
		{filepath.Join("testdata", "wirecompat", "wire.lock"), "Dropped.Field (int) was removed"},
		{filepath.Join("testdata", "wirecompat", "fix.go"), "frame field Frame.Seq retyped from uint32 to uint64 without WireVersion changing"},
		{filepath.Join("testdata", "wirecompat", "wire.lock"), "frame field Frame.Flags (uint8) was removed without WireVersion changing"},
		{filepath.Join("testdata", "wirecompat", "fix.go"), "frame field Frame.Added (int) was added without WireVersion changing"},
	}
	if len(diags) != len(expects) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(expects), diags)
	}
	for _, e := range expects {
		found := false
		for _, d := range diags {
			if d.Pos.Filename == e.file && d.Pos.Line > 0 && d.Rule == "wirecompat" &&
				regexp.MustCompile(regexp.QuoteMeta(e.msgPart)).MatchString(d.Msg) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing diagnostic %q at %s:\n%v", e.msgPart, e.file, diags)
		}
	}
	// Additive evolution stays silent: the new fields the lock predates
	// must produce no diagnostic.
	for _, d := range diags {
		if regexp.MustCompile(`Profile|Plan`).MatchString(d.Msg) {
			t.Errorf("additive field flagged: %v", d)
		}
	}
}

// fixtureWireConfig is the fixture package's schema: Hello as a gob
// struct, Frame as a frame of the format WireVersion versions.
func fixtureWireConfig(lock string) WirecompatConfig {
	return WirecompatConfig{
		LockPath:     lock,
		Structs:      map[string][]string{"fix/protocol": {"Hello"}},
		Frames:       map[string][]string{"fix/protocol": {"Frame"}},
		VersionPkg:   "fix/protocol",
		VersionConst: "WireVersion",
	}
}

// TestWirecompatVersionBump: once the version constant differs from the
// locked one, frame changes are what the bump is for — the only
// diagnostic asks for the lock to be regenerated — while the gob structs
// are held to additive evolution as before.
func TestWirecompatVersionBump(t *testing.T) {
	pkg := fixturePkg(t, "wirecompat", "fix/protocol")
	lock := filepath.Join(t.TempDir(), "wire.lock")
	old := "fix/protocol Frame Flags uint8\nfix/protocol Frame Seq uint32\nfix/protocol const WireVersion 2\nfix/protocol Hello Gone string\n"
	if err := os.WriteFile(lock, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{NewWirecompatAnalyzer(fixtureWireConfig(lock))})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want the version notice and Hello.Gone:\n%v", len(diags), diags)
	}
	for _, want := range []string{"wire version changed from 2 to 3: run pplint -update", "Hello.Gone (string) was removed"} {
		if !slices.ContainsFunc(diags, func(d Diagnostic) bool { return strings.Contains(d.Msg, want) }) {
			t.Errorf("missing diagnostic %q:\n%v", want, diags)
		}
	}
}

func TestWirecompatUpdateRoundTrip(t *testing.T) {
	pkg := fixturePkg(t, "wirecompat", "fix/protocol")
	lock := filepath.Join(t.TempDir(), "wire.lock")
	cfg := fixtureWireConfig(lock)
	update := cfg
	update.Update = true

	// -update writes a lock reflecting the current tree.
	if _, err := Run([]*Package{pkg}, []*Analyzer{NewWirecompatAnalyzer(update)}); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(lock)
	if err != nil {
		t.Fatal(err)
	}

	// Diffing the unchanged tree against the fresh lock is clean.
	diags, err := Run([]*Package{pkg}, []*Analyzer{NewWirecompatAnalyzer(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("fresh lock should be clean, got: %v", diags)
	}

	// A second -update is byte-identical (deterministic output).
	if _, err := Run([]*Package{pkg}, []*Analyzer{NewWirecompatAnalyzer(update)}); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(lock)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("-update is not deterministic:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

func TestWirecompatMissingLock(t *testing.T) {
	pkg := fixturePkg(t, "wirecompat", "fix/protocol")
	diags, err := Run([]*Package{pkg}, []*Analyzer{NewWirecompatAnalyzer(WirecompatConfig{
		LockPath: filepath.Join(t.TempDir(), "absent.lock"),
		Structs:  map[string][]string{"fix/protocol": {"Hello"}},
	})})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !regexp.MustCompile("lock missing").MatchString(diags[0].Msg) {
		t.Fatalf("want a single 'lock missing' diagnostic, got: %v", diags)
	}
}
