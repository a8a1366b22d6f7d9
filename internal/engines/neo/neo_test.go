package neo

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engines/enginetest"
)

func TestConformanceV19(t *testing.T) {
	enginetest.Run(t, func() core.Engine { return New(V19) })
}

func TestCloneConformanceV19(t *testing.T) {
	enginetest.RunClone(t, func() core.Engine { return New(V19) })
}

func TestCloneConformanceV30(t *testing.T) {
	enginetest.RunClone(t, func() core.Engine { return New(V30) })
}

func TestConformanceV30(t *testing.T) {
	enginetest.Run(t, func() core.Engine { return New(V30) })
}

func TestConcurrencyConformanceV19(t *testing.T) {
	enginetest.RunConcurrency(t, func() core.Engine { return New(V19) })
}

func TestConcurrencyConformanceV30(t *testing.T) {
	enginetest.RunConcurrency(t, func() core.Engine { return New(V30) })
}

func TestRecordIDsAreOffsets(t *testing.T) {
	e := New(V19)
	defer e.Close()
	// IDs must be dense offsets starting at 0, and freed slots must be
	// reused — the defining property of the fixed-record stores.
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	if a != 0 || b != 1 {
		t.Fatalf("ids = %d,%d; want offsets 0,1", a, b)
	}
	e.RemoveVertex(a)
	c, _ := e.AddVertex(nil)
	if c != a {
		t.Fatalf("freed record not reused: %d", c)
	}
}

func TestV30GroupsSplitChainsByType(t *testing.T) {
	e := New(V30)
	defer e.Close()
	hub, _ := e.AddVertex(nil)
	var others []core.ID
	for i := 0; i < 6; i++ {
		v, _ := e.AddVertex(nil)
		others = append(others, v)
	}
	labels := []string{"a", "b", "c"}
	for i, v := range others {
		e.AddEdge(hub, v, labels[i%3], nil)
	}
	// Groups are per (node, type): the hub has one per label, and each
	// spoke has one for its single incoming label.
	if e.groups.Live() != 9 {
		t.Fatalf("group records = %d, want 9 (3 hub + 6 spokes)", e.groups.Live())
	}
	if got := countGroups(e, hub); got != 3 {
		t.Fatalf("hub group chain length = %d, want 3", got)
	}
	// Label-filtered traversal touches only one chain.
	if n := core.Drain(e.IncidentEdges(hub, core.DirOut, "a")); n != 2 {
		t.Fatalf("out(hub,a) = %d", n)
	}
	// Removing the hub releases its own groups (spokes keep theirs).
	e.RemoveVertex(hub)
	if e.groups.Live() != 6 {
		t.Fatalf("groups after hub removal = %d, want 6", e.groups.Live())
	}
}

func TestV19SingleChainCoversBothDirections(t *testing.T) {
	e := New(V19)
	defer e.Close()
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	e1, _ := e.AddEdge(a, b, "x", nil)
	e2, _ := e.AddEdge(b, a, "y", nil)
	got := map[core.ID]bool{}
	it := e.IncidentEdges(a, core.DirBoth)
	for id, ok := it(); ok; id, ok = it() {
		got[id] = true
	}
	if !got[e1] || !got[e2] || len(got) != 2 {
		t.Fatalf("bothE(a) = %v", got)
	}
}

func TestStringPropertyPayloadInDynamicStore(t *testing.T) {
	e := New(V19)
	defer e.Close()
	before := e.strs.Bytes()
	v, _ := e.AddVertex(core.Props{"s": core.S("a rather long string value")})
	if e.strs.Bytes() <= before {
		t.Fatal("string payload not off-loaded to dynamic store")
	}
	// Updating a string property retires the old payload.
	e.SetVertexProp(v, "s", core.S("new"))
	if e.strs.DeadBytes() == 0 {
		t.Fatal("old string payload not marked dead")
	}
	if got, _ := e.VertexProp(v, "s"); got != core.S("new") {
		t.Fatalf("prop = %v", got)
	}
}

func TestSpaceBreakdownSeparatesStructureFromData(t *testing.T) {
	e := New(V19)
	defer e.Close()
	g := core.NewGraph(100, 200)
	for i := 0; i < 100; i++ {
		g.AddVertex(core.Props{"name": core.S("vertex-name-payload")})
	}
	for i := 0; i < 200; i++ {
		g.AddEdge(i%100, (i+1)%100, "l", nil)
	}
	if _, err := e.BulkLoad(g); err != nil {
		t.Fatal(err)
	}
	r := e.SpaceUsage()
	if r.Breakdown["node-store"] == 0 || r.Breakdown["relationship-store"] == 0 ||
		r.Breakdown["property-store"] == 0 || r.Breakdown["string-store"] == 0 {
		t.Fatalf("expected populated store files: %v", r.Breakdown)
	}
	// Structure (nodes+rels) must be independent of the attribute data
	// volume: doubling the string payload grows only the dynamic store.
	structBefore := r.Breakdown["node-store"] + r.Breakdown["relationship-store"]
	// A second identical load doubles the structural stores; the extra
	// string property set on every vertex must land only in the property
	// and dynamic stores.
	res2, err := e.BulkLoad(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, vid := range res2.VertexIDs {
		e.SetVertexProp(vid, "extra", core.S("another long string attribute value"))
	}
	r2 := e.SpaceUsage()
	structAfter := r2.Breakdown["node-store"] + r2.Breakdown["relationship-store"]
	if structAfter != 2*structBefore {
		t.Fatalf("structural stores grew with attribute data: %d -> %d", structBefore, structAfter)
	}
	if r2.Breakdown["string-store"] <= r.Breakdown["string-store"] {
		t.Fatal("string payloads did not land in the dynamic store")
	}
}

func countGroups(e *Engine, id core.ID) int {
	rec, _ := e.nodes.Record(int64(id))
	n := 0
	for g := nodeFirstRel(rec); g != nilRef; {
		grec, _ := e.groups.Record(g)
		n++
		g = getI64(grec, gNext)
	}
	return n
}

func TestV30CUDSlowerPathStillCorrect(t *testing.T) {
	// The wrapper bootstrap must not change semantics: mirror a sequence
	// of CUD ops on both versions and compare final state.
	e19, e30 := New(V19), New(V30)
	defer e19.Close()
	defer e30.Close()
	var vs19, vs30 []core.ID
	for i := 0; i < 20; i++ {
		a, _ := e19.AddVertex(core.Props{"i": core.I(int64(i))})
		b, _ := e30.AddVertex(core.Props{"i": core.I(int64(i))})
		vs19 = append(vs19, a)
		vs30 = append(vs30, b)
	}
	for i := 0; i < 19; i++ {
		e19.AddEdge(vs19[i], vs19[i+1], "n", nil)
		e30.AddEdge(vs30[i], vs30[i+1], "n", nil)
	}
	e19.RemoveVertex(vs19[10])
	e30.RemoveVertex(vs30[10])
	n19, _ := e19.CountEdges()
	n30, _ := e30.CountEdges()
	if n19 != n30 || n19 != 17 {
		t.Fatalf("edge counts diverged: v19=%d v30=%d", n19, n30)
	}
	d19, _ := e19.Degree(vs19[9], core.DirBoth)
	d30, _ := e30.Degree(vs30[9], core.DirBoth)
	if d19 != d30 || d19 != 1 {
		t.Fatalf("degrees diverged: %d vs %d", d19, d30)
	}
}
