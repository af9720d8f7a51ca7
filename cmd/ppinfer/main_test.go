package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"ppstream"
)

// TestBadCommandLineIsRefused: no -model, or none after the flag, ends in
// the usage exit 2; a -model naming no file gets past the command line and
// fails loading it, exit 1. Each says why on stderr and prints no result.
func TestBadCommandLineIsRefused(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.gob")
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // on stderr
	}{
		{"no -model", nil, 2, "-model is required"},
		{"missing -model value", []string{"-model"}, 2, "flag needs an argument: -model"},
		{"unknown flag", []string{"-model", missing, "-bogus"}, 2, "not defined: -bogus"},
		{"unknown model file", []string{"-model", missing}, 1, "missing.gob"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d\nstderr:\n%s", tc.name, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr does not say %q:\n%s", tc.name, tc.want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed a result:\n%s", tc.name, stdout.String())
		}
	}
}

// TestInfersATrainedModel: a saved Heart model runs one private inference
// end to end, and the result agrees with the plaintext reference.
func TestInfersATrainedModel(t *testing.T) {
	spec, err := ppstream.ModelByName("Heart")
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := ppstream.PrepareModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "Heart.gob")
	if err := ppstream.SaveModel(net, path); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-model", path, "-keybits", "256"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	var private, plain string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 4 && f[1] == "inference:" && f[2] == "class" {
			private = f[3]
		} else if len(f) >= 4 && f[0] == "plaintext" && f[1] == "reference:" {
			plain = f[3]
		}
	}
	if private == "" || private != plain {
		t.Errorf("private class %q, plaintext class %q:\n%s", private, plain, stdout.String())
	}
}
