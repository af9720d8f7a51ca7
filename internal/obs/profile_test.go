package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestProfileLoopCapturesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	stop, err := StartProfileLoop(ProfileLoopOptions{
		Dir:         dir,
		Every:       50 * time.Millisecond,
		CPUDuration: 10 * time.Millisecond,
		Keep:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait, bounded, until the directory holds exactly one capture (CPU +
	// heap). While the next capture is being written it briefly holds two
	// before the prune — a slow poll can land there, so that state is
	// waited out rather than failed on; a prune that never happens runs
	// into the deadline.
	deadline := time.After(5 * time.Second)
	for {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var cpu, heap int
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "cpu-") {
				cpu++
			}
			if strings.HasPrefix(e.Name(), "heap-") {
				heap++
			}
		}
		if cpu == 1 && heap == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("never saw one capture pruned to Keep=1; dir holds %d cpu / %d heap profiles", cpu, heap)
		case <-time.After(20 * time.Millisecond):
		}
	}
	stop()
	// The heap snapshot must be a readable non-empty file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "heap-") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Errorf("heap profile %s is empty", e.Name())
		}
	}
}

func TestProfileLoopStopDuringCapture(t *testing.T) {
	dir := t.TempDir()
	stop, err := StartProfileLoop(ProfileLoopOptions{
		Dir:         dir,
		Every:       20 * time.Millisecond,
		CPUDuration: 10 * time.Second, // capped to Every/2 by the loop
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // land inside a capture window
	finished := make(chan struct{})
	go func() { stop(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not interrupt an in-flight CPU capture")
	}
}

func TestProfileLoopBadDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := StartProfileLoop(ProfileLoopOptions{Dir: filepath.Join(file, "sub")}); err == nil {
		t.Fatal("StartProfileLoop accepted an uncreatable directory")
	}
}

func TestPruneProfilesKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	names := []string{
		"cpu-20250101T000000.pprof", "cpu-20250101T000100.pprof", "cpu-20250101T000200.pprof",
		"heap-20250101T000000.pprof", "heap-20250101T000100.pprof",
		"unrelated.txt",
	}
	for _, n := range names {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("p"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := pruneProfiles(dir, 1); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range entries {
		got[e.Name()] = true
	}
	want := []string{"cpu-20250101T000200.pprof", "heap-20250101T000100.pprof", "unrelated.txt"}
	if len(got) != len(want) {
		t.Fatalf("after prune: %v, want %v", got, want)
	}
	for _, n := range want {
		if !got[n] {
			t.Errorf("prune removed %s", n)
		}
	}
}
