package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestLoggerJSONAndLevels: NewLogger writes one JSON line per call at or
// above its level and drops a lower one.
func TestLoggerJSONAndLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelInfo)
	l.Debug("hidden")
	l.Info("session open", "addr", "127.0.0.1:7100", "window", 8)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("%d lines, want 1 (debug filtered):\n%s", len(lines), buf.String())
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &m); err != nil {
		t.Fatalf("line %q is not JSON: %v", lines[0], err)
	}
	if m["level"] != "INFO" || m["msg"] != "session open" || m["addr"] != "127.0.0.1:7100" || m["window"] != float64(8) {
		t.Errorf("info line %v", m)
	}
}
