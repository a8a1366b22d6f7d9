package btree

import (
	"encoding/binary"
	"testing"

	"repro/internal/zeroalloc"
)

// TestZeroAllocReads guards the read paths: Get, Has, Seek and the
// prefix and range scans descend a multi-level tree without allocating.
// Every check also verifies what the read found, so it cannot pass by
// doing nothing.
func TestZeroAllocReads(t *testing.T) {
	const n = 10_000
	tr := New()
	for i := 0; i < n; i++ {
		k := binary.BigEndian.AppendUint64(nil, uint64(i))
		tr.Put(k, k)
	}
	if _, ok := tr.root.(*inner); !ok {
		t.Fatal("tree has a single leaf; the guard needs a descent")
	}
	var key, end [8]byte
	binary.BigEndian.PutUint64(key[:], 4321)
	binary.BigEndian.PutUint64(end[:], 4321+50)
	prefix := key[:7] // keys 4096..4351
	count := 0
	visit := func(_, _ []byte) bool { count++; return true }

	t.Run("Get", func(t *testing.T) {
		var v []byte
		var ok bool
		zeroalloc.Check(t, 100, func() { v, ok = tr.Get(key[:]) })
		if !ok || binary.BigEndian.Uint64(v) != 4321 {
			t.Fatalf("Get = %x, %v", v, ok)
		}
	})
	t.Run("Has", func(t *testing.T) {
		ok := false
		zeroalloc.Check(t, 100, func() { ok = tr.Has(key[:]) })
		if !ok {
			t.Fatal("Has = false")
		}
	})
	t.Run("Seek", func(t *testing.T) {
		var k []byte
		var ok bool
		zeroalloc.Check(t, 100, func() {
			c := tr.Seek(key[:])
			c.Next()
			k, _, ok = c.Next()
		})
		if !ok || binary.BigEndian.Uint64(k) != 4322 {
			t.Fatalf("second key after Seek = %x, %v", k, ok)
		}
	})
	t.Run("AscendPrefix", func(t *testing.T) {
		count = 0
		zeroalloc.Check(t, 100, func() { tr.AscendPrefix(prefix, visit) })
		if want := 101 * 256; count != want {
			t.Fatalf("visited %d keys over 101 runs, want %d", count, want)
		}
	})
	t.Run("AscendRange", func(t *testing.T) {
		count = 0
		zeroalloc.Check(t, 100, func() { tr.AscendRange(key[:], end[:], visit) })
		if want := 101 * 50; count != want {
			t.Fatalf("visited %d keys over 101 runs, want %d", count, want)
		}
	})
}
