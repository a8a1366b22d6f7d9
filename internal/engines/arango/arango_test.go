package arango

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engines/enginetest"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, func() core.Engine { return New() })
}

func TestCloneConformance(t *testing.T) {
	enginetest.RunClone(t, func() core.Engine { return New() })
}

func TestConcurrencyConformance(t *testing.T) {
	enginetest.RunConcurrency(t, func() core.Engine { return New() })
}

func TestInteractiveOpsCrossRESTBoundary(t *testing.T) {
	e := New()
	defer e.Close()
	before := e.RESTBytes()
	v, _ := e.AddVertex(core.Props{"a": core.I(1)})
	afterInsert := e.RESTBytes()
	if afterInsert <= before {
		t.Fatal("AddVertex did not cross the REST boundary")
	}
	e.VertexProps(v)
	if e.RESTBytes() <= afterInsert {
		t.Fatal("read did not cross the REST boundary")
	}
}

func TestBulkLoadBypassesREST(t *testing.T) {
	e := New()
	defer e.Close()
	g := core.NewGraph(100, 100)
	for i := 0; i < 100; i++ {
		g.AddVertex(core.Props{"i": core.I(int64(i))})
	}
	for i := 0; i < 100; i++ {
		g.AddEdge(i, (i+1)%100, "l", nil)
	}
	before := e.RESTBytes()
	if _, err := e.BulkLoad(g); err != nil {
		t.Fatal(err)
	}
	if e.RESTBytes() != before {
		t.Fatal("bulk load pushed bytes through REST (native path expected)")
	}
}

func TestDocumentsAreSelfContainedJSON(t *testing.T) {
	e := New()
	defer e.Close()
	v, _ := e.AddVertex(core.Props{"name": core.S("x")})
	doc := e.vdocs[v]
	if len(doc) == 0 || doc[0] != '{' {
		t.Fatalf("vertex not stored as JSON: %q", doc)
	}
	// Updating a property rewrites the serialized document.
	e.SetVertexProp(v, "name", core.S("a-much-longer-name"))
	if string(e.vdocs[v]) == string(doc) {
		t.Fatal("document not rewritten on update")
	}
}

func TestEdgeHashIndexServesTraversalWithoutDecode(t *testing.T) {
	e := New()
	defer e.Close()
	a, _ := e.AddVertex(nil)
	b, _ := e.AddVertex(nil)
	eid, _ := e.AddEdge(a, b, "knows", core.Props{"big": core.S("payload payload payload")})
	// Corrupt the stored document: traversal and EdgeEnds must still work
	// because they are served from the hash index, not the document.
	e.edocs[eid] = []byte("not json")
	src, dst, err := e.EdgeEnds(eid)
	if err != nil || src != a || dst != b {
		t.Fatalf("EdgeEnds = %v,%v,%v", src, dst, err)
	}
	if n := core.Drain(e.Neighbors(a, core.DirOut)); n != 1 {
		t.Fatalf("neighbors = %d", n)
	}
	if l, err := e.EdgeLabel(eid); err != nil || l != "knows" {
		t.Fatalf("label = %q %v", l, err)
	}
}

func TestDeclaredIndexChangesNothing(t *testing.T) {
	e := New()
	defer e.Close()
	for i := 0; i < 50; i++ {
		e.AddVertex(core.Props{"k": core.I(int64(i % 5))})
	}
	before := core.Drain(e.VerticesByProp("k", core.I(2)))
	if err := e.BuildVertexPropIndex("k"); err != nil {
		t.Fatal(err)
	}
	after := core.Drain(e.VerticesByProp("k", core.I(2)))
	if before != after || after != 10 {
		t.Fatalf("index changed results: %d vs %d", before, after)
	}
}
