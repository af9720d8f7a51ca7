package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/rules.golden from the current analyzer registry")

// TestRuleListGolden pins the registered analyzer set: adding, renaming,
// or dropping a rule must show up as a diff against testdata/rules.golden
// and therefore be a reviewed change, not a silent registry edit.
// Regenerate intentionally with: go test ./cmd/pplint -update-golden
func TestRuleListGolden(t *testing.T) {
	var buf bytes.Buffer
	writeRuleList(&buf)
	golden := filepath.Join("testdata", "rules.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("analyzer registry drifted from testdata/rules.golden\n--- got ---\n%s--- want ---\n%s(regenerate with go test ./cmd/pplint -update-golden if intentional)", buf.Bytes(), want)
	}
}

// TestExitStatus pins the three exits on a throwaway module whose one
// security-critical package uses math/rand: 0 when the rules run find
// nothing, 1 with module-relative diagnostics (as text and as -json), and
// 2 — with nothing analyzed — for a flag or a -rules name that does not
// exist, so a CI step naming a deleted rule fails instead of checking
// less.
func TestExitStatus(t *testing.T) {
	mod := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":               "module example\n\ngo 1.22\n",
		"obfuscate/shuffle.go": "package obfuscate\n\nimport \"math/rand\"\n\n// Pick is not cryptographic.\nfunc Pick(n int) int { return rand.Intn(n) }\n",
	} {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(mod); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	for _, tc := range []struct {
		name        string
		args        []string
		code        int
		out, errOut string // substrings of stdout, stderr
	}{
		{"clean", []string{"-rules", "erraudit,lockscope", "./..."}, 0, "", ""},
		{"diagnostics", []string{"./..."}, 1, "obfuscate/shuffle.go:6:31: cryptorand: math/rand used", "1 diagnostics"},
		{"json", []string{"-json", "-rules", "cryptorand"}, 1, `"rule": "cryptorand"`, "1 diagnostics"},
		{"unknown rule", []string{"-rules", "lockscope,leakcheck", "./..."}, 2, "", `unknown rule "leakcheck" (registered: cryptorand,`},
		{"unknown flag", []string{"-update", "./..."}, 2, "", "flag provided but not defined: -update"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", tc.name, code, tc.code, stdout.String(), stderr.String())
			continue
		}
		if !strings.Contains(stdout.String(), tc.out) || !strings.Contains(stderr.String(), tc.errOut) {
			t.Errorf("%s: want %q on stdout and %q on stderr, got\nstdout:\n%s\nstderr:\n%s", tc.name, tc.out, tc.errOut, stdout.String(), stderr.String())
		}
		if tc.code == 2 && stdout.Len() != 0 {
			t.Errorf("%s: refused command line still wrote diagnostics:\n%s", tc.name, stdout.String())
		}
		if tc.name == "json" {
			var diags []jsonDiagnostic
			if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil || len(diags) != 1 || diags[0].File != "obfuscate/shuffle.go" || diags[0].Line != 6 {
				t.Errorf("json: %v, %+v", err, diags)
			}
		}
	}
}
