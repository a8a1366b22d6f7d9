package btree

import (
	"bytes"
	"fmt"
	"testing"
)

func dump(t *Tree) string {
	var buf bytes.Buffer
	c := t.Scan()
	for {
		k, v, ok := c.Next()
		if !ok {
			break
		}
		fmt.Fprintf(&buf, "%x=%x;", k, v)
	}
	fmt.Fprintf(&buf, "len=%d bytes=%d", t.Len(), t.Bytes())
	return buf.String()
}

// TestCloneIsIndependent: a clone scans like its source, and inserts,
// overwrites and deletes on either side — splitting, borrowing and
// merging leaves the two share key bytes with — never show on the other.
func TestCloneIsIndependent(t *testing.T) {
	for _, mutateClone := range []bool{true, false} {
		src := New()
		for i := 0; i < 2000; i += 2 {
			src.Put(key(i), []byte{byte(i)})
		}
		want := dump(src)
		c := src.Clone()
		if got := dump(c); got != want {
			t.Fatal("clone differs from its source")
		}
		w, kept := c, src
		if !mutateClone {
			w, kept = src, c
		}
		for i := 1; i < 2000; i += 2 {
			w.Put(key(i), []byte{1}) // lands inside every leaf
		}
		for i := 0; i < 2000; i += 6 {
			w.Put(key(i), []byte{2})
		}
		for i := 0; i < 1800; i += 2 {
			w.Delete(key(i))
		}
		if got := dump(kept); got != want {
			t.Fatalf("mutateClone=%v: the untouched tree changed", mutateClone)
		}
		if w.Len() != 1000+100 {
			t.Fatalf("mutated tree holds %d keys", w.Len())
		}
	}
}

func TestCloneEmpty(t *testing.T) {
	c := New().Clone()
	c.Put(key(1), nil)
	if !c.Has(key(1)) || c.Len() != 1 {
		t.Fatal("clone of an empty tree is not usable")
	}
}
