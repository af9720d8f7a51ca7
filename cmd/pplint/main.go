// Command pplint runs PP-Stream's repo-specific static analyzers: the
// security and wire-compatibility invariants the compiler cannot check
// (see internal/analysis). It exits non-zero when any diagnostic fires.
//
// Usage:
//
//	pplint [-update] [-rules rule1,rule2] [-json] [-listrules] [packages...]
//
// Packages default to ./... (the whole module). -update regenerates the
// wire-schema lock (internal/protocol/wire.lock) from the current tree;
// use it only for intentional, additive wire changes. -json emits
// diagnostics as a JSON array on stdout for machine consumers (exit
// status is unchanged: 1 when diagnostics fire, 2 on analysis errors).
// -listrules prints the registered analyzer names and one-line docs and
// exits; CI pins this listing against a golden file so adding or
// removing a rule is a reviewed change. A diagnostic is suppressed by a
// same-line (or directly-above) comment:
//
//	//pplint:ignore rule reason
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ppstream/internal/analysis"
)

func main() {
	update := flag.Bool("update", false, "regenerate the wire schema lock instead of diffing against it")
	rules := flag.String("rules", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	listRules := flag.Bool("listrules", false, "print registered analyzer names and docs, then exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pplint [-update] [-rules list] [-json] [-listrules] [packages...]\n\nAnalyzers:\n")
		writeRuleList(os.Stderr)
		flag.PrintDefaults()
	}
	flag.Parse()
	if *listRules {
		writeRuleList(os.Stdout)
		return
	}
	if err := run(flag.Args(), *update, *rules, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "pplint:", err)
		os.Exit(2)
	}
}

// writeRuleList prints one "name  doc" line per registered analyzer, in
// registration order. cmd/pplint's golden test pins this output.
func writeRuleList(w io.Writer) {
	for _, a := range analysis.Analyzers(analysis.WirecompatConfig{}) {
		fmt.Fprintf(w, "  %-14s %s\n", a.Name, a.Doc)
	}
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

func run(patterns []string, update bool, rules string, asJSON bool) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return err
	}
	pkgs, err := loader.LoadModule(patterns)
	if err != nil {
		return err
	}
	var typeErrs int
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintln(os.Stderr, "pplint: type error:", terr)
			typeErrs++
		}
	}
	if typeErrs > 0 {
		return fmt.Errorf("%d type errors — analysis would be unreliable", typeErrs)
	}
	analyzers := analysis.Analyzers(analysis.DefaultWireConfig(filepath.Join(root, analysis.DefaultWireLockPath), update))
	if rules != "" {
		want := map[string]bool{}
		for _, r := range strings.Split(rules, ",") {
			want[strings.TrimSpace(r)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				filtered = append(filtered, a)
			}
		}
		if len(filtered) == 0 {
			return fmt.Errorf("no analyzers match -rules=%s", rules)
		}
		analyzers = filtered
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		return err
	}
	for i := range diags {
		// Print module-relative paths so output is stable across checkouts.
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
	if asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
				Rule: d.Rule, Message: d.Msg,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pplint: %d diagnostics\n", len(diags))
		os.Exit(1)
	}
	return nil
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
