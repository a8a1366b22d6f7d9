package lsm

import (
	"fmt"
	"testing"
)

func contents(s *Store) string {
	out := ""
	s.ScanPrefix([]byte("k"), func(k, v []byte) bool {
		out += string(k) + "=" + string(v) + ";"
		return true
	})
	return out
}

// TestCloneIsIndependent: writes that flush and compact on either side
// of a clone — while the two share runs — never show on the other.
func TestCloneIsIndependent(t *testing.T) {
	for _, mutateClone := range []bool{true, false} {
		s := New(Options{FlushBytes: 256, CompactAt: 3, CachePrefixLen: 2})
		for i := 0; i < 100; i++ {
			s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
		}
		_ = contents(s) // warm the row cache
		want, wantBytes := contents(s), s.Bytes()
		c, err := s.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if contents(c) != want || c.Bytes() != wantBytes {
			t.Fatal("clone differs from its source")
		}
		w, kept := c, s
		if !mutateClone {
			w, kept = s, c
		}
		f0, c0, _, _, _ := w.Stats()
		for i := 0; i < 100; i += 2 {
			w.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("changed"))
			w.Delete([]byte(fmt.Sprintf("k%03d", i+1)))
		}
		w.Flush()
		w.Compact()
		if f, cs, _, _, _ := w.Stats(); f == f0 || cs == c0 {
			t.Fatal("the writes neither flushed nor compacted")
		}
		if contents(kept) != want || kept.Bytes() != wantBytes {
			t.Fatalf("mutateClone=%v: the untouched store changed", mutateClone)
		}
	}
}
