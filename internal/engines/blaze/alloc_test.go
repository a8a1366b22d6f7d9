package blaze

import (
	"testing"

	"repro/internal/core"
	"repro/internal/zeroalloc"
)

// TestZeroAllocEdgeEnds guards the engine primitive every traversal on
// this engine pays: EdgeEnds' two SPO prefix probes build their keys on
// the stack and allocate nothing. The returned endpoints are checked
// too, so the guard cannot pass on a failed lookup.
func TestZeroAllocEdgeEnds(t *testing.T) {
	g := core.NewGraph(500, 1000)
	for i := 0; i < 500; i++ {
		g.AddVertex(core.Props{"n": core.I(int64(i))})
	}
	for i := 0; i < 1000; i++ {
		g.AddEdge(i%500, (i*7+1)%500, "knows", core.Props{"w": core.I(int64(i))})
	}
	e := New()
	defer e.Close()
	res, err := e.BulkLoad(g)
	if err != nil {
		t.Fatal(err)
	}
	eid := res.EdgeIDs[777]
	var src, dst core.ID
	zeroalloc.Check(t, 100, func() {
		if src, dst, err = e.EdgeEnds(eid); err != nil {
			t.Error(err)
		}
	})
	if src != res.VertexIDs[777%500] || dst != res.VertexIDs[(777*7+1)%500] {
		t.Fatalf("EdgeEnds = %d, %d; want %d, %d", src, dst, res.VertexIDs[777%500], res.VertexIDs[(777*7+1)%500])
	}
}
