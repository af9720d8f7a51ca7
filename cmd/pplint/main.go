// Command pplint runs PP-Stream's repo-specific static analyzers: the
// security and liveness invariants neither the compiler nor the tests
// check (see internal/analysis, and DESIGN §7 for the audit that keeps
// each rule). It exits 1 when any diagnostic fires.
//
// Usage:
//
//	pplint [-rules rule1,rule2] [-json] [-listrules] [packages...]
//
// Packages default to ./... (the whole module). -rules runs only the named
// analyzers; a name that is not registered is a usage error. -json emits
// diagnostics as a JSON array on stdout for machine consumers (the exit
// status is unchanged). -listrules prints the registered analyzer names
// and one-line docs and exits; CI pins this listing against a golden file
// so adding or removing a rule is a reviewed change. Exit status: 0 clean,
// 1 diagnostics, 2 a bad command line or an analysis error. A diagnostic
// is suppressed by a same-line (or directly-above) comment:
//
//	//pplint:ignore rule reason
//
// and a directive that names no registered rule, or suppressed nothing in
// a run of every rule it names, is itself reported.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ppstream/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it lints the packages args name and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated analyzer names to run (default: all)")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	listRules := fs.Bool("listrules", false, "print registered analyzer names and docs, then exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pplint [-rules list] [-json] [-listrules] [packages...]\n\nAnalyzers:\n")
		writeRuleList(stderr)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *listRules {
		writeRuleList(stdout)
		return 0
	}
	analyzers, err := selectRules(*rules)
	if err != nil {
		fmt.Fprintln(stderr, "pplint:", err)
		return 2
	}
	diags, err := lint(fs.Args(), analyzers, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "pplint:", err)
		return 2
	}
	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
				Rule: d.Rule, Message: d.Msg,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "pplint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "pplint: %d diagnostics\n", len(diags))
		return 1
	}
	return 0
}

// writeRuleList prints one "name  doc" line per registered analyzer, in
// registration order. cmd/pplint's golden test pins this output.
func writeRuleList(w io.Writer) {
	for _, a := range analysis.Analyzers() {
		fmt.Fprintf(w, "  %-14s %s\n", a.Name, a.Doc)
	}
}

// selectRules returns the analyzers -rules names (all of them for ""),
// refusing any name that is not registered.
func selectRules(rules string) ([]*analysis.Analyzer, error) {
	all := analysis.Analyzers()
	if rules == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	var names []string
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	var picked []*analysis.Analyzer
	for _, r := range strings.Split(rules, ",") {
		a, ok := byName[strings.TrimSpace(r)]
		if !ok {
			return nil, fmt.Errorf("-rules: unknown rule %q (registered: %s)", r, strings.Join(names, ", "))
		}
		picked = append(picked, a)
	}
	return picked, nil
}

// jsonDiagnostic is the machine-readable diagnostic shape emitted by
// -json. Field names are part of the tool's interface; CI and editor
// integrations parse them.
type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// lint type-checks the packages patterns name in the module around the
// working directory and runs analyzers over them. Type errors go to
// stderr and fail the run: analysis of a broken tree would be unreliable.
func lint(patterns []string, analyzers []*analysis.Analyzer, stderr io.Writer) ([]analysis.Diagnostic, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.LoadModule(patterns)
	if err != nil {
		return nil, err
	}
	var typeErrs int
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintln(stderr, "pplint: type error:", terr)
			typeErrs++
		}
	}
	if typeErrs > 0 {
		return nil, fmt.Errorf("%d type errors — analysis would be unreliable", typeErrs)
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	for i := range diags {
		// Print module-relative paths so output is stable across checkouts.
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
	return diags, nil
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
