package pagefile

import (
	"bytes"
	"testing"
)

// TestStoreCloneIsIndependent: records are written in place, so writes,
// allocations and frees on either side never show on the other.
func TestStoreCloneIsIndependent(t *testing.T) {
	s := NewStore(8)
	for i := 0; i < 10; i++ {
		rec, _ := s.Record(s.Alloc())
		rec[0] = byte(i)
	}
	s.Free(3)
	c := s.Clone()
	if c.Bytes() != s.Bytes() || c.Live() != s.Live() || c.HighWater() != s.HighWater() {
		t.Fatal("clone accounts differently from its source")
	}
	rec, _ := c.Record(4)
	rec[0] = 99
	if id := c.Alloc(); id != 3 {
		t.Fatalf("clone reused slot %d, want the freed slot 3", id)
	}
	c.Free(5)
	if rec, _ := s.Record(4); rec[0] != 4 {
		t.Fatal("a write to the clone changed the source's record")
	}
	if s.InUse(3) || !s.InUse(5) || s.Live() != 9 {
		t.Fatal("clone allocation or free changed the source")
	}
	if id := s.Alloc(); id != 3 {
		t.Fatalf("source reused slot %d, want 3", id)
	}
}

// TestHeapCloneIsIndependent: appends on either side — both into
// their spare capacity — and deletes stay private.
func TestHeapCloneIsIndependent(t *testing.T) {
	h := NewHeap()
	h.Reserve(1 << 10)
	a := h.Append([]byte("alpha"))
	c := h.Clone()
	sb := h.Append([]byte("source"))
	cb := c.Append([]byte("clone!"))
	if sb != cb {
		t.Fatalf("offsets diverge: %d vs %d", sb, cb)
	}
	if r, _ := h.Read(sb); !bytes.Equal(r, []byte("source")) {
		t.Fatalf("source reads %q", r)
	}
	if r, _ := c.Read(cb); !bytes.Equal(r, []byte("clone!")) {
		t.Fatalf("clone reads %q", r)
	}
	c.Delete(a)
	if h.DeadBytes() != 0 || h.Live() != 2 {
		t.Fatal("a delete on the clone changed the source's accounting")
	}
	if r, _ := h.Read(a); !bytes.Equal(r, []byte("alpha")) {
		t.Fatalf("source's first record reads %q", r)
	}
}

func TestPositionMapCloneIsIndependent(t *testing.T) {
	m := NewPositionMap()
	m.Add(10)
	m.Add(20)
	c := m.Clone()
	c.Move(0, 11)
	c.Free(1)
	c.Add(30)
	if p, ok := m.Get(0); !ok || p != 10 {
		t.Fatal("Move on the clone changed the source")
	}
	if _, ok := m.Get(1); !ok || m.Len() != 2 || m.Live() != 2 {
		t.Fatal("Free or Add on the clone changed the source")
	}
}
