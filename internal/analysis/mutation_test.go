package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutationRow re-introduces the bug one rule exists for into a copy of
// the production package the rule guards. DESIGN §7 records, for every
// row, that no ordinary test fails on the same edit: the rule is the only
// check that catches it, which is why the rule is kept.
type mutationRow struct {
	rule string
	dir  string // module-relative package directory
	file string // the file the replacement edits
	old  string // must occur exactly once in file
	new  string
}

var mutationRows = []mutationRow{
	{
		// NewRandom draws from the process-wide math/rand source, seeded
		// once: 2^64 reachable permutations instead of P!.
		rule: "cryptorand", dir: "internal/obfuscate", file: "obfuscate.go",
		old: "j, err := uniformIndex(i + 1)",
		new: "j, err := mathrand.Intn(i+1), error(nil)",
	},
	{
		// Value hands out the ciphertext's own ring element.
		rule: "bigintalias", dir: "internal/paillier", file: "crypto.go",
		old: "func (ct *Ciphertext) Value() *big.Int { return new(big.Int).Set(ct.c) }",
		new: "func (ct *Ciphertext) Value() *big.Int { return ct.c }",
	},
	{
		// The edge forgets a failed write and keeps framing on a broken
		// stream.
		rule: "erraudit", dir: "internal/stream", file: "edge.go",
		old: "_, w.err = e.conn.Write(w.buf[:w.used])",
		new: "e.conn.Write(w.buf[:w.used])",
	},
	{
		// A counter no snapshot reader would find under its lowercase name.
		rule: "metricnames", dir: "internal/protocol", file: "retry.go",
		old: `reg.Counter("retry.redials")`,
		new: `reg.Counter("retry.Redials")`,
	},
	{
		// Shutdown waits out the in-flight Submits while holding the
		// lock every Submit needs.
		rule: "lockscope", dir: "internal/core", file: "serve.go",
		old: "\te.srv = nil\n\te.serveMu.Unlock()\n",
		new: "\te.srv = nil\n\tdefer e.serveMu.Unlock()\n",
	},
	{
		// A round frame's send detaches from the request's deadline.
		rule: "ctxdeadline", dir: "internal/protocol", file: "client.go",
		old: "c.out.Send(ctx, &stream.Message{Seq: req, Payload: frame})",
		new: "c.out.Send(context.Background(), &stream.Message{Seq: req, Payload: frame})",
	},
}

// TestMutationRows: every registered rule has a row; on the production
// file the rule reports nothing, and on a copy of its package with the
// row's replacement applied — loaded under the real import path — it
// reports in the edited file. A replacement that no longer matches
// exactly once fails the row, so a row cannot silently go stale when the
// code it mutates moves.
func TestMutationRows(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks each row's package and its imports from source twice; CI's static-analysis job runs it in full")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	for _, row := range mutationRows {
		delete(byName, row.rule)
	}
	for name := range byName {
		t.Errorf("rule %s has no mutation row", name)
	}
	original, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range mutationRows {
		t.Run(row.rule, func(t *testing.T) {
			importPath := "ppstream/" + row.dir
			pkg := loadClean(t, original, filepath.Join(root, row.dir), importPath)
			if got := reportsIn(t, pkg, row.rule, filepath.Join(root, row.dir, row.file)); got != 0 {
				t.Fatalf("%s reports %d diagnostics on the production %s", row.rule, got, row.file)
			}
			tmp := t.TempDir()
			copyPackage(t, filepath.Join(root, row.dir), tmp)
			mutated := filepath.Join(tmp, row.file)
			src, err := os.ReadFile(mutated)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), row.old); n != 1 {
				t.Fatalf("replacement matches %d times in %s, want once: update the row to the current code", n, row.file)
			}
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), row.old, row.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			if reportsIn(t, loadClean(t, fresh, tmp, importPath), row.rule, mutated) == 0 {
				t.Errorf("%s is silent on its mutation of %s", row.rule, row.file)
			}
		})
	}
}

// loadClean loads dir as importPath and fails on any type error: a row
// whose edit does not compile would prove nothing.
func loadClean(t *testing.T, l *Loader, dir, importPath string) *Package {
	t.Helper()
	pkg, err := l.LoadDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("type error: %v", terr)
	}
	if t.Failed() {
		t.FailNow()
	}
	return pkg
}

// reportsIn runs one rule over pkg and counts its diagnostics in file.
func reportsIn(t *testing.T, pkg *Package, rule, file string) int {
	t.Helper()
	var a *Analyzer
	for _, r := range Analyzers() {
		if r.Name == rule {
			a = r
		}
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, d := range diags {
		if d.Rule == rule && d.Pos.Filename == file {
			n++
		}
	}
	return n
}

// copyPackage copies the non-test Go sources of src into dst.
func copyPackage(t *testing.T, src, dst string) {
	t.Helper()
	names, err := goSources(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
