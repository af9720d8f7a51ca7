package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadCommandLineIsRefused: every command line the client cannot run
// with ends in the usage exit 2 before a key is generated or the server
// dialled — the model path does not exist, so a line that got past
// validation would end in the model-load exit 1 instead.
func TestBadCommandLineIsRefused(t *testing.T) {
	model := filepath.Join(t.TempDir(), "missing.gob")
	for _, tc := range []struct {
		name string
		args []string
		want string // in stderr
	}{
		{"no model", nil, "-model"},
		{"unknown flag", []string{"-model", model, "-bogus"}, "not defined: -bogus"},
		{"bad -profile", []string{"-model", model, "-profile", "fastest"}, "bad -profile"},
		{"-n 0", []string{"-model", model, "-n", "0"}, "-n must be at least 1"},
		{"-concurrency 0", []string{"-model", model, "-concurrency", "0"}, "-concurrency must be at least 1"},
		{"negative -deadline", []string{"-model", model, "-deadline", "-1s"}, "-deadline must not be negative"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2\nstderr:\n%s", tc.name, code, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr does not say %q:\n%s", tc.name, tc.want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote to stdout:\n%s", tc.name, stdout.String())
		}
	}
	// The same model path with a valid command line gets past validation
	// and fails where it should: loading the model.
	var stdout, stderr bytes.Buffer
	args := []string{"-model", model, "-n", "1", "-concurrency", "2", "-deadline", "5s", "-profile", "mixed"}
	if code := run(args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "missing.gob") {
		t.Errorf("valid flags, missing model: exit %d, want 1 and a model-load error\n%s", code, stderr.String())
	}
}
