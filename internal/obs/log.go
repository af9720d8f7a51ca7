package obs

import (
	"io"
	"log/slog"
)

// Logger is the standard library's structured logger. Every line is one
// JSON object:
//
//	{"time":"2026-08-06T10:00:00.000Z","level":"INFO","msg":"session open","trace_id":"4bf0...","addr":"..."}
//
// A request-scoped child is Logger.With("trace_id", id), so every line of
// one request carries its trace ID for cross-party correlation.
type Logger = slog.Logger

// Level orders log severities.
type Level = slog.Level

// The levels ppserver chooses between.
const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
)

// NewLogger returns a logger writing JSON lines at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: min}))
}
