package sparksee

import (
	"errors"
	"fmt"
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

func TestCountsArePopcounts(t *testing.T) {
	e := New()
	defer e.Close()
	for i := 0; i < 1000; i++ {
		e.AddVertex(nil)
	}
	if n, _ := e.CountVertices(); n != 1000 {
		t.Fatalf("CountVertices = %d", n)
	}
	// The count must reflect removals without scanning.
	e.RemoveVertex(core.ID(0))
	if n, _ := e.CountVertices(); n != 999 {
		t.Fatalf("CountVertices after removal = %d", n)
	}
}

// TestDegreeOOMOnLabelHeavyGraphs reproduces the paper's Q28–Q31
// finding: on graphs combining many nodes with many edge labels (the
// Freebase family), the degree filter exhausts the adapter's memory
// budget; on label-light graphs of similar size (MiCo-like) it
// completes.
func TestDegreeOOMOnLabelHeavyGraphs(t *testing.T) {
	build := func(nodes, labels int) *Engine {
		e := New(WithMemBudget(1 << 20))
		var vs []core.ID
		for i := 0; i < nodes; i++ {
			v, _ := e.AddVertex(nil)
			vs = append(vs, v)
		}
		for i := 0; i < nodes*2; i++ {
			e.AddEdge(vs[i%nodes], vs[(i+1)%nodes], fmt.Sprint("l", i%labels), nil)
		}
		return e
	}

	scanDegrees := func(e *Engine) error {
		it := e.Vertices() // resets retention, as a fresh traversal does
		for id, ok := it(); ok; id, ok = it() {
			if _, err := e.Degree(id, core.DirBoth); err != nil {
				return err
			}
		}
		return nil
	}

	labelHeavy := build(500, 400)
	if err := scanDegrees(labelHeavy); !errors.Is(err, core.ErrOutOfMemory) {
		t.Fatalf("label-heavy scan err = %v, want ErrOutOfMemory", err)
	}
	labelLight := build(500, 5)
	if err := scanDegrees(labelLight); err != nil {
		t.Fatalf("label-light scan failed: %v", err)
	}
	// A fresh traversal must start from a clean budget.
	if err := scanDegrees(labelLight); err != nil {
		t.Fatalf("second scan failed: %v", err)
	}
}

func TestDeclaredIndexDoesNotChangeSearchPath(t *testing.T) {
	e := New()
	defer e.Close()
	for i := 0; i < 100; i++ {
		e.AddVertex(core.Props{"k": core.I(int64(i % 10))})
	}
	before := core.Drain(e.VerticesByProp("k", core.I(3)))
	if err := e.BuildVertexPropIndex("k"); err != nil {
		t.Fatal(err)
	}
	if !e.HasVertexPropIndex("k") {
		t.Fatal("index declaration not recorded")
	}
	after := core.Drain(e.VerticesByProp("k", core.I(3)))
	if before != after || after != 10 {
		t.Fatalf("results changed with index: %d vs %d", before, after)
	}
}

func TestLabelFilteredNeighborsViaBitmapIntersection(t *testing.T) {
	e := New()
	defer e.Close()
	hub, _ := e.AddVertex(nil)
	for i := 0; i < 30; i++ {
		v, _ := e.AddVertex(nil)
		e.AddEdge(hub, v, fmt.Sprint("l", i%3), nil)
	}
	if n := core.Drain(e.Neighbors(hub, core.DirOut, "l1")); n != 10 {
		t.Fatalf("out(hub,l1) = %d", n)
	}
	if n := core.Drain(e.Neighbors(hub, core.DirOut, "l0", "l2")); n != 20 {
		t.Fatalf("out(hub,l0,l2) = %d", n)
	}
}

func TestAttrStoreValueBitmapsStayConsistent(t *testing.T) {
	e := New()
	defer e.Close()
	v, _ := e.AddVertex(core.Props{"c": core.S("red")})
	e.SetVertexProp(v, "c", core.S("blue"))
	a := e.vattrs["c"]
	if _, stale := a.byVal[core.S("red")]; stale {
		t.Fatal("stale value bitmap kept after update")
	}
	if !a.byVal[core.S("blue")].Contains(uint64(v)) {
		t.Fatal("value bitmap missing updated entry")
	}
	e.RemoveVertexProp(v, "c")
	if len(a.byVal) != 0 || len(a.vals) != 0 {
		t.Fatal("attr store not emptied")
	}
}
