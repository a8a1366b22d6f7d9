package rel

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/zeroalloc"
)

// TestZeroAllocSelectEq guards the index seek: SelectEq on an indexed
// int column and on an indexed short-string column builds its lookup
// prefix on the stack and allocates nothing. The match counts are
// checked too, so the guard cannot pass on an empty result.
func TestZeroAllocSelectEq(t *testing.T) {
	tb, err := NewDB().CreateTable("t", "id", "src", "name")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		r := Row{core.I(int64(i)), core.I(int64(i % 100)), core.S(fmt.Sprintf("name-%d", i%50))}
		if err := tb.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"src", "name"} {
		if err := tb.CreateIndex(col); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		col  string
		v    core.Value
		want int
	}{
		{"src", core.I(42), 50},
		{"name", core.S("name-7"), 100},
	} {
		t.Run(tc.col, func(t *testing.T) {
			n := 0
			count := func(Row) bool { n++; return true }
			_, seeks := tb.Stats()
			zeroalloc.Check(t, 100, func() {
				if err := tb.SelectEq(tc.col, tc.v, count); err != nil {
					t.Error(err)
				}
			})
			if _, after := tb.Stats(); after-seeks != 101 || n != 101*tc.want {
				t.Fatalf("%d index seeks found %d rows, want 101 seeks of %d rows", after-seeks, n, tc.want)
			}
		})
	}
}
