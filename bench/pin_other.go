//go:build !linux

package main

// confineToOneCPU is a no-op where the process cannot set its own
// processor affinity; numbers from such a host are not comparable with
// those the benchmark's bounds were set on.
func confineToOneCPU() error { return nil }
