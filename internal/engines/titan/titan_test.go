package titan

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engines/enginetest"
	"repro/internal/lsm"
)

func TestConformanceV05(t *testing.T) {
	enginetest.Run(t, func() core.Engine { return New(V05) })
}

func TestCloneConformanceV05(t *testing.T) {
	enginetest.RunClone(t, func() core.Engine { return New(V05) })
}

func TestCloneConformanceV10(t *testing.T) {
	enginetest.RunClone(t, func() core.Engine { return New(V10) })
}

func TestConformanceV10(t *testing.T) {
	enginetest.Run(t, func() core.Engine { return New(V10) })
}

func TestConcurrencyConformanceV05(t *testing.T) {
	enginetest.RunConcurrency(t, func() core.Engine { return New(V05) })
}

func TestConcurrencyConformanceV10(t *testing.T) {
	enginetest.RunConcurrency(t, func() core.Engine { return New(V10) })
}

func TestDeltaEncodingCompactsAdjacency(t *testing.T) {
	// A hub with many neighbours of nearby IDs must occupy less space
	// per edge than fixed-width records would: the adjacency column
	// stores varint deltas.
	hubGraph := core.NewGraph(1001, 1000)
	for i := 0; i <= 1000; i++ {
		hubGraph.AddVertex(nil)
	}
	for i := 1; i <= 1000; i++ {
		hubGraph.AddEdge(0, i, "l", nil)
	}
	e := New(V10)
	defer e.Close()
	if _, err := e.BulkLoad(hubGraph); err != nil {
		t.Fatal(err)
	}
	key := edgeColKey(0, colOutEdge, 0, 500, 1300)
	// prefix(10) + labelTok(4) + delta varint + eid varint: well under a
	// fixed 8+8 layout.
	if len(key) >= 10+4+16 {
		t.Fatalf("adjacency key not compacted: %d bytes", len(key))
	}
}

func TestDeletesAreTombstones(t *testing.T) {
	e := New(V05)
	defer e.Close()
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	eid, _ := e.AddEdge(a, b, "l", nil)
	e.kv.Flush() // push the row into an immutable run, as on a settled store
	bytesBefore := e.kv.Bytes()
	if err := e.RemoveEdge(eid); err != nil {
		t.Fatal(err)
	}
	// A tombstone write *grows* the store until compaction.
	if e.kv.Bytes() <= bytesBefore {
		t.Fatalf("delete shrank the store immediately: %d -> %d", bytesBefore, e.kv.Bytes())
	}
	if e.HasEdge(eid) {
		t.Fatal("edge visible after tombstone")
	}
	if n := core.Drain(e.IncidentEdges(a, core.DirBoth)); n != 0 {
		t.Fatalf("adjacency still shows %d edges", n)
	}
}

func TestV10RowCacheServesRepeatedTraversals(t *testing.T) {
	e := New(V10)
	defer e.Close()
	hub, _ := e.AddVertex(nil)
	for i := 0; i < 10; i++ {
		v, _ := e.AddVertex(nil)
		e.AddEdge(hub, v, "l", nil)
	}
	core.Drain(e.Neighbors(hub, core.DirOut))
	core.Drain(e.Neighbors(hub, core.DirOut))
	_, _, _, hits, _ := e.Stats()
	if hits == 0 {
		t.Fatal("repeated traversal did not hit the row cache")
	}
	// Cache must not serve stale rows.
	v, _ := e.AddVertex(nil)
	e.AddEdge(hub, v, "l", nil)
	if n := core.Drain(e.Neighbors(hub, core.DirOut)); n != 11 {
		t.Fatalf("post-write traversal = %d, want 11", n)
	}
}

func TestV05ConsistencyChecksOnWrites(t *testing.T) {
	// Both versions must agree semantically; v0.5 just pays extra reads.
	e5, e10 := New(V05), New(V10)
	defer e5.Close()
	defer e10.Close()
	for i := 0; i < 10; i++ {
		a5, _ := e5.AddVertex(core.Props{"i": core.I(int64(i))})
		a10, _ := e10.AddVertex(core.Props{"i": core.I(int64(i))})
		if a5 != a10 {
			t.Fatalf("id sequences diverged: %v vs %v", a5, a10)
		}
	}
	n5, _ := e5.CountVertices()
	n10, _ := e10.CountVertices()
	if n5 != n10 || n5 != 10 {
		t.Fatalf("counts: %d vs %d", n5, n10)
	}
}

func TestBulkLoadSingleRun(t *testing.T) {
	g := core.NewGraph(200, 600)
	for i := 0; i < 200; i++ {
		g.AddVertex(core.Props{"n": core.I(int64(i))})
	}
	for i := 0; i < 600; i++ {
		g.AddEdge(i%200, (i+1)%200, "l", core.Props{"w": core.I(int64(i))})
	}
	e := New(V10)
	defer e.Close()
	res, err := e.BulkLoad(g)
	if err != nil {
		t.Fatal(err)
	}
	flushes, _, runs, _, _ := e.Stats()
	if flushes != 0 || runs != 1 {
		t.Fatalf("bulk load: flushes=%d runs=%d, want 0/1", flushes, runs)
	}
	if n, _ := e.CountEdges(); n != 600 {
		t.Fatalf("CountEdges = %d", n)
	}
	if v, ok := e.EdgeProp(res.EdgeIDs[5], "w"); !ok || v != core.I(5) {
		t.Fatalf("edge prop = %v %v", v, ok)
	}
	// A second load on a non-empty store must use the incremental path
	// and still be correct.
	res2, err := e.BulkLoad(g)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := e.CountVertices(); n != 400 {
		t.Fatalf("vertices after second load = %d", n)
	}
	if !e.HasVertex(res2.VertexIDs[0]) {
		t.Fatal("second load lost vertices")
	}
}

// newTiny builds a volatile engine whose store flushes after a few
// hundred bytes of writes and compacts every third run, so writes to a
// clone flush and compact while the clone still shares its bulk-loaded
// run with the source.
func newTiny(v Version) *Engine {
	e := New(v)
	opts := lsm.Options{FlushBytes: 256, CompactAt: 3}
	if v == V10 {
		opts.CachePrefixLen = rowPrefixLen
	}
	e.kv = lsm.New(opts)
	return e
}

func TestCloneConformanceTinyFlush(t *testing.T) {
	for _, v := range []Version{V05, V10} {
		t.Run(fmt.Sprint("v", v), func(t *testing.T) {
			enginetest.RunClone(t, func() core.Engine { return newTiny(v) })
		})
	}
}

// TestCloneFlushesAndCompactsOverSharedRuns checks that the clone
// really flushed and compacted, and that neither touched the source.
func TestCloneFlushesAndCompactsOverSharedRuns(t *testing.T) {
	newEngine := func() core.Engine { return newTiny(V10) }
	fresh, _ := enginetest.LoadClone(t, newEngine)
	defer fresh.Close()
	src, res := enginetest.LoadClone(t, newEngine)
	defer src.Close()
	c := enginetest.CloneOf(t, src).(*Engine)
	defer c.Close()
	enginetest.Mutate(t, c, res)
	if flushes, compacts, _, _, _ := c.kv.Stats(); flushes == 0 || compacts == 0 {
		t.Fatalf("clone made %d flushes and %d compactions, want both > 0", flushes, compacts)
	}
	if flushes, compacts, runs, _, _ := src.(*Engine).kv.Stats(); flushes != 0 || compacts != 0 || runs != 1 {
		t.Fatalf("source made %d flushes and %d compactions and holds %d runs", flushes, compacts, runs)
	}
	enginetest.SameState(t, "source after clone writes", src, fresh)
}
