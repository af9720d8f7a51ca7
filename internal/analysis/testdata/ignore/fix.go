// Package ignoredemo is a pplint fixture for the //pplint:ignore
// directive: three identical erraudit violations, two suppressed (one
// by named rule as a trailing comment, one by "all" on the line above)
// and one still firing; then a directive that suppresses nothing and one
// that names a rule the registry does not have, both reported.
package ignoredemo

import "io"

// Demo exercises both directive placements.
func Demo(w io.Writer, p []byte) {
	w.Write(p) // want "unchecked error from io.Writer.Write"
	w.Write(p) //pplint:ignore erraudit fire-and-forget by design
	//pplint:ignore all demo of the blanket form
	w.Write(p)
}

// Stale checks the write its directives were written for: erraudit ran
// and the first suppressed nothing, and no rule is called leakcheck.
func Stale(w io.Writer, p []byte) error {
	//pplint:ignore erraudit the error used to be dropped here // want "suppressed nothing"
	if _, err := w.Write(p); err != nil {
		return err
	}
	//pplint:ignore leakcheck ownership moves to the caller // want "not a registered rule"
	_, err := w.Write(p)
	return err
}
