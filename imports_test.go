package ppstream

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServingPathImports keeps three packages where wire format v1 put
// them: encoding/gob only behind the one on-disk format (the model file in
// internal/nn), unsafe nowhere in the module, and reflect out of the two
// packages every frame passes through.
// It reads the non-test imports of every package from `go list`.
func TestServingPathImports(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Imports " "}}`, "./...").Output()
	if err != nil {
		t.Skipf("go list unavailable: %v", err)
	}
	gobAllowed := map[string]bool{"ppstream/internal/nn": true}
	noReflect := map[string]bool{"ppstream/internal/stream": true, "ppstream/internal/protocol": true}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, imports, _ := strings.Cut(line, " ")
		for _, imp := range strings.Fields(imports) {
			switch {
			case imp == "unsafe":
				t.Errorf("%s imports unsafe", pkg)
			case imp == "encoding/gob" && !gobAllowed[pkg]:
				t.Errorf("%s imports encoding/gob: gob is the on-disk format of internal/nn only", pkg)
			case imp == "reflect" && noReflect[pkg]:
				t.Errorf("%s imports reflect", pkg)
			}
		}
	}
}
