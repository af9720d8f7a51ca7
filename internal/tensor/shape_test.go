package tensor

import (
	"testing"
	"testing/quick"
)

func TestShapeSize(t *testing.T) {
	cases := []struct {
		shape Shape
		want  int
	}{
		{Shape{}, 1},
		{Shape{5}, 5},
		{Shape{3, 28, 28}, 2352},
		{Shape{2, 2, 2, 2}, 16},
	}
	for _, c := range cases {
		if got := c.shape.Size(); got != c.want {
			t.Errorf("Size(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}

func TestShapeValidate(t *testing.T) {
	if err := (Shape{3, 4}).Validate(); err != nil {
		t.Errorf("valid shape rejected: %v", err)
	}
	if err := (Shape{3, 0}).Validate(); err == nil {
		t.Error("zero dimension accepted")
	}
	if err := (Shape{-1}).Validate(); err == nil {
		t.Error("negative dimension accepted")
	}
}

func TestShapeEqual(t *testing.T) {
	if !(Shape{2, 3}).Equal(Shape{2, 3}) {
		t.Error("equal shapes reported unequal")
	}
	if (Shape{2, 3}).Equal(Shape{3, 2}) {
		t.Error("unequal shapes reported equal")
	}
	if (Shape{2, 3}).Equal(Shape{2, 3, 1}) {
		t.Error("different ranks reported equal")
	}
}

func TestShapeOffsetIndexRoundTrip(t *testing.T) {
	s := Shape{3, 4, 5}
	for off := 0; off < s.Size(); off++ {
		idx := s.Index(off)
		if got := s.Offset(idx...); got != off {
			t.Fatalf("Offset(Index(%d)) = %d", off, got)
		}
	}
}

func TestShapeOffsetPanics(t *testing.T) {
	s := Shape{2, 2}
	assertPanics(t, "wrong rank", func() { s.Offset(1) })
	assertPanics(t, "out of bounds", func() { s.Offset(0, 2) })
	assertPanics(t, "negative", func() { s.Offset(-1, 0) })
}

func TestShapeIndexPanics(t *testing.T) {
	s := Shape{2, 2}
	assertPanics(t, "offset too big", func() { s.Index(4) })
	assertPanics(t, "negative offset", func() { s.Index(-1) })
}

func TestShapeString(t *testing.T) {
	if got := (Shape{3, 28, 28}).String(); got != "[3 28 28]" {
		t.Errorf("String() = %q", got)
	}
}

// Property: for random small shapes, Index and Offset are inverse
// bijections over the full flat range.
func TestShapeOffsetIndexProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		s := Shape{int(a%4) + 1, int(b%4) + 1, int(c%4) + 1}
		seen := make(map[int]bool)
		for off := 0; off < s.Size(); off++ {
			idx := s.Index(off)
			back := s.Offset(idx...)
			if back != off || seen[back] {
				return false
			}
			seen[back] = true
		}
		return len(seen) == s.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
