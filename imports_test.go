package ppstream

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServingPathImports keeps the serving packages to what they serve.
// encoding/gob (the model file) and net/http with net/http/pprof (the
// operator's endpoint) are linked, directly or through any dependency,
// only by the two packages that hold those formats and by the commands,
// examples and experiments that import them. unsafe is imported nowhere
// in the module, and reflect by neither of the two packages every frame
// passes through.
// It reads the non-test imports and dependencies of every package from
// `go list`.
func TestServingPathImports(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}}|{{join .Imports " "}}|{{join .Deps " "}}`, "./...").Output()
	if err != nil {
		t.Skipf("go list unavailable: %v", err)
	}
	commandOnly := map[string]string{
		"encoding/gob":   "the model file's format",
		"net/http":       "the operator's endpoint",
		"net/http/pprof": "the operator's endpoint",
	}
	noReflect := map[string]bool{"ppstream/internal/stream": true, "ppstream/internal/protocol": true}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Split(line, "|")
		pkg, imports, deps := fields[0], strings.Fields(fields[1]), strings.Fields(fields[2])
		for _, imp := range imports {
			switch {
			case imp == "unsafe":
				t.Errorf("%s imports unsafe", pkg)
			case imp == "reflect" && noReflect[pkg]:
				t.Errorf("%s imports reflect", pkg)
			}
		}
		if linksCommandFormats(pkg) {
			continue
		}
		for _, dep := range deps {
			if what, ok := commandOnly[dep]; ok {
				t.Errorf("%s depends on %s: it is %s, linked only by internal/modelfile, internal/obs/obshttp and their importers", pkg, dep, what)
			}
		}
	}
}

// linksCommandFormats reports whether pkg may link the model file's and
// the operator endpoint's packages: they themselves, the root package,
// the commands, the examples and the experiments.
func linksCommandFormats(pkg string) bool {
	switch pkg {
	case "ppstream", "ppstream/internal/modelfile", "ppstream/internal/obs/obshttp", "ppstream/internal/experiments":
		return true
	}
	return strings.HasPrefix(pkg, "ppstream/cmd/") || strings.HasPrefix(pkg, "ppstream/examples/")
}
