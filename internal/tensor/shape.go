// Package tensor provides dense multi-dimensional arrays used throughout
// PP-Stream: plaintext float tensors, integer (scaled) tensors, and the
// element containers that Paillier ciphertext tensors build on.
//
// A tensor is a flat backing slice plus a Shape. Elements are stored in
// row-major (lexicographic) order, which is exactly the order the paper's
// obfuscation step uses when reshaping a tensor into a one-dimensional
// vector (Section III-C).
package tensor

import (
	"fmt"
	"strings"
)

// Shape describes the dimension sizes of a tensor, outermost first.
type Shape []int

// Size returns the total number of elements, i.e. the product of all
// dimension sizes. The empty shape has size 1 (a scalar).
func (s Shape) Size() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// Validate reports an error if any dimension is non-positive.
func (s Shape) Validate() error {
	for i, d := range s {
		if d <= 0 {
			return fmt.Errorf("tensor: shape %v has non-positive dimension %d at axis %d", s, d, i)
		}
	}
	return nil
}

// Equal reports whether two shapes have identical rank and dimensions.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Offset converts a multi-dimensional index to a flat offset.
// It panics if the index has the wrong rank or is out of bounds, matching
// the behaviour of built-in slice indexing.
func (s Shape) Offset(idx ...int) int {
	if len(idx) != len(s) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape rank %d", len(idx), len(s)))
	}
	off := 0
	stride := 1
	for i := len(s) - 1; i >= 0; i-- {
		if idx[i] < 0 || idx[i] >= s[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, s))
		}
		off += idx[i] * stride
		stride *= s[i]
	}
	return off
}

// Index converts a flat offset back to a multi-dimensional index.
func (s Shape) Index(offset int) []int {
	if offset < 0 || offset >= s.Size() {
		panic(fmt.Sprintf("tensor: offset %d out of bounds for shape %v (size %d)", offset, s, s.Size()))
	}
	idx := make([]int, len(s))
	for i := len(s) - 1; i >= 0; i-- {
		idx[i] = offset % s[i]
		offset /= s[i]
	}
	return idx
}

// String renders the shape as, e.g., "[3 28 28]".
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
