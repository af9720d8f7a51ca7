package ppstream

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunFiltersMatch keeps the workflow's `go test -run` filters honest:
// a filter alternative that names no test passes silently, so a renamed or
// deleted test would drop out of CI unnoticed. For each `go test` command
// in .github/workflows/ci.yml that selects tests with -run, every
// alternative of the pattern must match a Test or Fuzz function in the
// _test.go files of the command's packages. A -run beside -fuzz or -bench
// is there to run no tests, and is skipped.
func TestCIRunFiltersMatch(t *testing.T) {
	workflow, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	commands := 0
	for _, line := range strings.Split(string(workflow), "\n") {
		for _, cmd := range strings.Split(line, "&&") {
			_, args, ok := strings.Cut(cmd, "go test ")
			if !ok {
				continue
			}
			filter, pkgs := runFilter(strings.Fields(args))
			if filter == "" {
				continue
			}
			commands++
			names := testNames(t, pkgs)
			for _, alt := range strings.Split(filter, "|") {
				alt, _, _ = strings.Cut(alt, "/")
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%q: %v", alt, err)
					continue
				}
				if !anyMatch(re, names) {
					t.Errorf("ci.yml runs -run alternative %q in %v, which matches no Test or Fuzz function", alt, pkgs)
				}
			}
		}
	}
	if commands == 0 {
		t.Fatal("found no go test command with a -run filter in ci.yml")
	}
}

// runFilter returns a go test command's -run pattern, unquoted, and its
// package arguments. The pattern is empty when the command has none or
// also fuzzes or benchmarks.
func runFilter(args []string) (filter string, pkgs []string) {
	for i := 0; i < len(args); i++ {
		a := strings.Trim(args[i], "'\"")
		switch {
		case a == "-run" && i+1 < len(args):
			i++
			filter = strings.Trim(args[i], "'\"")
		case strings.HasPrefix(a, "-run="):
			filter = strings.TrimPrefix(a, "-run=")
		case strings.HasPrefix(a, "-fuzz=") || strings.HasPrefix(a, "-bench="):
			return "", nil
		case a == "." || strings.HasPrefix(a, "./"):
			pkgs = append(pkgs, a)
		}
	}
	return filter, pkgs
}

// testNames parses the _test.go files of the package directories and
// returns the names of their Test and Fuzz functions.
func testNames(t *testing.T, pkgs []string) []string {
	t.Helper()
	var names []string
	for _, pkg := range pkgs {
		files, err := filepath.Glob(filepath.Join(filepath.FromSlash(pkg), "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Errorf("package %s has no test files (%v)", pkg, err)
			continue
		}
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
