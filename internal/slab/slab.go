// Package slab copies many small slices into one allocation. It is the
// copy step of the engines' Clone implementations (core.Cloner): a
// loaded graph holds one small slice per vertex, leaf, row or bitmap
// chunk, and copying each with its own allocation would cost a clone
// nearly as much as the load it replaces.
package slab

// Slab hands out slice copies from one backing array. Every copy keeps
// its source's capacity, reserved behind it in the slab, so appending
// to the copy behaves exactly as appending to the source does: it
// grows in place up to the same capacity and reallocates at the same
// length. A clone therefore pays no reallocation, inside a timed
// query, that its source would not have paid.
type Slab[T any] struct{ buf []T }

// New returns a slab with room for copies whose capacities sum to n.
func New[T any](n int) *Slab[T] { return &Slab[T]{buf: make([]T, 0, n)} }

// Copy returns a copy of src carved from the slab, with src's length
// and capacity; a nil src stays nil. It panics if the slab has no room
// left for cap(src) elements — the caller sized it wrong.
func (s *Slab[T]) Copy(src []T) []T {
	if src == nil {
		return nil
	}
	o := len(s.buf)
	s.buf = s.buf[:o+cap(src)]
	copy(s.buf[o:], src)
	return s.buf[o : o+len(src) : o+cap(src)]
}

// Clone copies s with its length and capacity; a nil s stays nil.
func Clone[T any](s []T) []T { return New[T](cap(s)).Copy(s) }
