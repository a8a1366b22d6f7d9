package lsm

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/zeroalloc"
)

// TestZeroAllocScanPrefix guards the merged prefix scan: a volatile
// store with the row cache off scans a row spread over the memtable and
// two runs without allocating. The scan's result — newest value wins,
// tombstones hide older values — is checked too, so the guard cannot
// pass on an empty scan.
func TestZeroAllocScanPrefix(t *testing.T) {
	s := New(DefaultOptions())
	key := func(row, col int) []byte { return []byte(fmt.Sprintf("r%d/c%02d", row, col)) }
	write := func(from, to int, val string) {
		for c := from; c < to; c++ {
			for row := 1; row <= 3; row++ {
				s.Put(key(row, c), []byte(val))
			}
		}
	}
	write(0, 10, "old")
	s.Flush()
	write(5, 15, "mid")
	s.Delete(key(2, 2))
	s.Flush()
	write(10, 20, "new")
	s.Delete(key(2, 12))
	if _, _, runs, _, _ := s.Stats(); runs != 2 || s.mem.Len() == 0 {
		t.Fatalf("runs = %d, memtable keys = %d; want 2 runs and a non-empty memtable", runs, s.mem.Len())
	}

	want := map[string]string{}
	for c := 0; c < 20; c++ {
		switch {
		case c == 2 || c == 12:
		case c < 5:
			want[string(key(2, c))] = "old"
		case c < 10:
			want[string(key(2, c))] = "mid"
		default:
			want[string(key(2, c))] = "new"
		}
	}
	prefix := []byte("r2/")
	got := map[string]string{}
	s.ScanPrefix(prefix, func(k, v []byte) bool { got[string(k)] = string(v); return true })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan = %v\nwant %v", got, want)
	}

	var prev []byte
	n, ordered := 0, true
	visit := func(k, _ []byte) bool {
		ordered = ordered && bytes.Compare(prev, k) < 0
		prev = k
		n++
		return true
	}
	zeroalloc.Check(t, 100, func() {
		prev = nil
		s.ScanPrefix(prefix, visit)
	})
	if !ordered || n != 101*len(want) {
		t.Fatalf("visited %d keys over 101 scans (ordered=%v), want %d", n, ordered, 101*len(want))
	}
}
