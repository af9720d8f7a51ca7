package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadCommandLineIsRefused: every command line the server cannot run
// with ends in the usage exit 2 before anything is opened — the model
// path does not exist, so a line that got past validation would end in
// the model-load exit 1 instead, and none gets as far as a listener. The
// flags the span store superseded (-flight), the profile loop took with
// it (-profiledir, -profileevery) and the on-disk span log took with it
// (-tracedir) are refused, not ignored.
func TestBadCommandLineIsRefused(t *testing.T) {
	model := filepath.Join(t.TempDir(), "missing.gob")
	for _, tc := range []struct {
		name string
		args []string
		want string // in the output
	}{
		{"no model", nil, "-model"},
		{"unknown flag", []string{"-model", model, "-bogus"}, "not defined: -bogus"},
		{"-flight", []string{"-model", model, "-flight", "64"}, "not defined: -flight"},
		{"-profiledir", []string{"-model", model, "-profiledir", t.TempDir()}, "not defined: -profiledir"},
		{"-profileevery", []string{"-model", model, "-profileevery", "1m"}, "not defined: -profileevery"},
		{"-tracedir", []string{"-model", model, "-tracedir", "x"}, "not defined: -tracedir"},
		{"bad -slo", []string{"-model", model, "-slo", "p99"}, "bad -slo"},
		{"bad -profile", []string{"-model", model, "-profile", "fastest"}, "bad -profile"},
		{"-tracesample above 1", []string{"-model", model, "-tracesample", "1.5"}, "bad -tracesample"},
		{"-tracesample below 0", []string{"-model", model, "-tracesample", "-0.1"}, "bad -tracesample"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2\nstdout:\n%s\nstderr:\n%s", tc.name, code, stdout.String(), stderr.String())
			continue
		}
		if out := stdout.String() + stderr.String(); !strings.Contains(out, tc.want) {
			t.Errorf("%s: output does not say %q:\n%s", tc.name, tc.want, out)
		}
	}
	// The same model path with a valid command line gets past validation
	// and fails where it should: loading the model.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-model", model, "-slo", "p99=250ms", "-profile", "mixed", "-tracesample", "1"}, &stdout, &stderr); code != 1 ||
		!strings.Contains(stdout.String(), "model load failed") {
		t.Errorf("valid flags, missing model: exit %d, want 1 and a model-load error\n%s", code, stdout.String())
	}
}
