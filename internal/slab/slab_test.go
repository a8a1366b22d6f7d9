package slab

import "testing"

func TestCopyKeepsLengthCapacityAndIndependence(t *testing.T) {
	a := make([]int, 2, 5)
	a[0], a[1] = 1, 2
	b := []int{3}
	s := New[int](cap(a) + cap(b))
	ca, cb := s.Copy(a), s.Copy(b)
	if len(ca) != 2 || cap(ca) != 5 || ca[1] != 2 || len(cb) != 1 || cb[0] != 3 {
		t.Fatalf("copies %v (cap %d), %v", ca, cap(ca), cb)
	}
	// Appending within the reserved capacity never reaches a neighbour
	// or the source.
	ca = append(ca, 7, 8, 9)
	ca[0] = 0
	if cb[0] != 3 || a[0] != 1 || len(a) != 2 {
		t.Fatal("appending to a copy changed its neighbour or its source")
	}
	if s.Copy(nil) != nil {
		t.Fatal("a nil slice copied to non-nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("copying past the slab's size did not panic")
		}
	}()
	s.Copy([]int{1})
}
