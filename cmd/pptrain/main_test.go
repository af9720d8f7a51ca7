package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"ppstream"
)

// TestBadCommandLineIsRefused: a -model with no name or an unknown name
// ends in the usage exit 2 with a message, before anything is written.
func TestBadCommandLineIsRefused(t *testing.T) {
	out := filepath.Join(t.TempDir(), "models")
	for _, tc := range []struct {
		name string
		args []string
		want string // on stderr
	}{
		{"missing -model value", []string{"-out", out, "-model"}, "flag needs an argument: -model"},
		{"unknown -model", []string{"-out", out, "-model", "Nope"}, "Nope"},
		{"unknown flag", []string{"-out", out, "-bogus"}, "not defined: -bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2\nstderr:\n%s", tc.name, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr does not say %q:\n%s", tc.name, tc.want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: trained something:\n%s", tc.name, stdout.String())
		}
	}
	if matches, _ := filepath.Glob(filepath.Join(out, "*")); len(matches) != 0 {
		t.Errorf("refused command lines wrote %v", matches)
	}
}

// TestTrainsALoadableModel: -model Heart -out DIR writes DIR/Heart.gob,
// which ppstream.LoadModel reads back as the Heart model.
func TestTrainsALoadableModel(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-model", "Heart", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	path := filepath.Join(dir, "Heart.gob")
	if !strings.Contains(stdout.String(), path) {
		t.Errorf("stdout does not name %s:\n%s", path, stdout.String())
	}
	net, err := ppstream.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if net.ModelName != "Heart" {
		t.Errorf("loaded model %q, want Heart", net.ModelName)
	}
}
