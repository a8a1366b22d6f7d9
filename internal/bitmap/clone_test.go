package bitmap

import (
	"reflect"
	"testing"
)

// TestCloneMapIsIndependent covers sparse and dense containers over
// several chunks: adds and removes on a copy — converting containers
// both ways — never show in the source, nor in the copy's neighbours
// carved from the same backing arrays, and vice versa.
func TestCloneMapIsIndependent(t *testing.T) {
	build := func() map[int]*Bitmap {
		m := map[int]*Bitmap{}
		for k := 0; k < 4; k++ {
			b := New()
			for x := uint64(0); x < 6000; x += uint64(k + 1) {
				b.Add(x + uint64(k)<<17)
			}
			m[k] = b
		}
		return m
	}
	snapshot := func(m map[int]*Bitmap) map[int][]uint64 {
		out := map[int][]uint64{}
		for k, b := range m {
			out[k] = b.Slice()
		}
		return out
	}
	for _, mutateCopy := range []bool{true, false} {
		src := build()
		want := snapshot(src)
		cp := CloneMap(src)
		if !reflect.DeepEqual(snapshot(cp), want) {
			t.Fatal("copy differs from its source")
		}
		for k := range src {
			if cp[k].Bytes() != src[k].Bytes() || cp[k].Len() != src[k].Len() {
				t.Fatalf("bitmap %d: copy accounts differently", k)
			}
		}
		w, kept := cp, src
		if !mutateCopy {
			w, kept = src, cp
		}
		for _, b := range w {
			for x := uint64(0); x < 6000; x += 3 {
				b.Remove(x + 1<<17)
			}
			for x := uint64(1); x < 200; x += 2 {
				b.Add(x)
				b.Add(x + 3<<17)
			}
			b.Add(1 << 40)
		}
		if !reflect.DeepEqual(snapshot(kept), want) {
			t.Fatalf("mutateCopy=%v: the untouched bitmaps changed", mutateCopy)
		}
	}
}

func TestClone(t *testing.T) {
	b := New()
	for x := uint64(0); x < 5000; x++ {
		b.Add(x * 3)
	}
	c := b.Clone()
	c.Remove(3)
	c.Add(1)
	if !b.Contains(3) || b.Contains(1) || b.Len() != 5000 {
		t.Fatal("writes to a clone changed its source")
	}
	if !c.Contains(1) || c.Contains(3) || c.Len() != 5000 {
		t.Fatal("clone lost its own writes")
	}
}
