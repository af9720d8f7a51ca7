package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestEveryListedNameDispatches: the usage text, resolve and the table
// cannot drift apart — every name the usage prints resolves to exactly
// its own runnable entry, and no name is listed twice.
func TestEveryListedNameDispatches(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no arguments: exit %d, want the usage exit 2", code)
	}
	usage := stderr.String()
	seen := map[string]bool{}
	for _, sc := range subcommands {
		if seen[sc.name] {
			t.Errorf("%s is listed twice", sc.name)
		}
		seen[sc.name] = true
		if sc.run == nil || sc.help == "" {
			t.Errorf("%s: entry lacks a run func or a help line", sc.name)
		}
		if !strings.Contains(usage, "\n  "+sc.name+" ") {
			t.Errorf("usage does not list %s:\n%s", sc.name, usage)
		}
		got, ok := resolve(sc.name)
		if !ok || len(got) != 1 || got[0].name != sc.name {
			t.Errorf("resolve(%q) = %v, %v; want that one entry", sc.name, names(got), ok)
		}
	}
	if !strings.Contains(usage, "\n  all ") {
		t.Errorf("usage does not list all:\n%s", usage)
	}

	// One listed name end to end through flag parsing and dispatch.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-quick", "table3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("table3: exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table III") || !strings.Contains(stdout.String(), "[table3 completed in") {
		t.Errorf("table3 output:\n%s", stdout.String())
	}
}

// TestRemovedSurfaceIsRefused: the subcommands bench/ superseded and the
// -json flag are gone for good — each ends in the usage exit with
// nothing run, not in a silent no-op.
func TestRemovedSurfaceIsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"serve"}, {"trace"}, {"stages"}, {"backends"},
		{"-json", "kernel"}, {"-quick", "-json", "chaos"},
		{"fig1", "fig6"}, // exactly one subcommand per run
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("ppbench %v: exit %d, want the usage exit 2", args, code)
		}
		if !strings.Contains(stderr.String(), "usage: ppbench") {
			t.Errorf("ppbench %v: no usage on stderr:\n%s", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("ppbench %v ran something:\n%s", args, stdout.String())
		}
	}
}

// TestAllIsThePaperSet: `all` runs the paper's tables and figures (plus
// kernel) in experiment order and nothing that deploys a server or needs
// one running.
func TestAllIsThePaperSet(t *testing.T) {
	got, ok := resolve("all")
	if !ok {
		t.Fatal("all does not resolve")
	}
	want := "fig1 kernel table3 table4 table5 fig6 fig8 fig7 fig9 table6 table7"
	if names(got) != want {
		t.Errorf("all = %s\nwant  %s", names(got), want)
	}
}

func names(scs []subcommand) string {
	out := make([]string, len(scs))
	for i, sc := range scs {
		out[i] = sc.name
	}
	return strings.Join(out, " ")
}
