package enginetest

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
)

// RunClone checks an engine's core.Cloner implementation: a clone of a
// loaded instance equals its source, and mutating either one — every
// create, update and delete operation, a cascading RemoveVertex and an
// attribute index — leaves the other equal to a fresh load. The harness
// relies on exactly this to run each mutating query on a clone instead
// of a reload.
func RunClone(t *testing.T, newEngine func() core.Engine) {
	t.Helper()
	t.Run("CloneMatchesSource", func(t *testing.T) { testCloneMatchesSource(t, newEngine) })
	t.Run("MutatingCloneKeepsSource", func(t *testing.T) { testCloneIndependence(t, newEngine, true) })
	t.Run("MutatingSourceKeepsClone", func(t *testing.T) { testCloneIndependence(t, newEngine, false) })
}

// CloneGraph is the graph the clone checks load: large enough for
// multi-level B+Trees, several edge labels, hubs, parallel edges and
// self-loops, and properties of every kind on vertices and edges.
func CloneGraph() *core.Graph {
	rng := rand.New(rand.NewSource(5))
	const nv, ne = 300, 1500
	g := core.NewGraph(nv, ne)
	for i := 0; i < nv; i++ {
		p := core.Props{"idx": core.I(int64(i)), "name": core.S(fmt.Sprint("v", i%40))}
		if i%3 == 0 {
			p["score"] = core.F(float64(i) / 4)
		}
		if i%5 == 0 {
			p["flag"] = core.B(i%10 == 0)
		}
		g.AddVertex(p)
	}
	labels := []string{"knows", "likes", "owns", "near"}
	for i := 0; i < ne; i++ {
		src := rng.Intn(nv)
		if i%4 == 0 {
			src = rng.Intn(8) // hubs
		}
		var p core.Props
		if i%2 == 0 {
			p = core.Props{"w": core.I(int64(i % 17))}
		}
		g.AddEdge(src, rng.Intn(nv), labels[rng.Intn(len(labels))], p)
	}
	return g
}

// cloneIndexProp is the vertex property the checks build an attribute
// index on.
const cloneIndexProp = "name"

// LoadClone bulk-loads CloneGraph into a fresh engine.
func LoadClone(t *testing.T, newEngine func() core.Engine) (core.Engine, *core.LoadResult) {
	t.Helper()
	e := newEngine()
	res, err := e.BulkLoad(CloneGraph())
	if err != nil {
		t.Fatal(err)
	}
	return e, res
}

// CloneOf clones e, failing the test if e is not a core.Cloner.
func CloneOf(t *testing.T, e core.Engine) core.Engine {
	t.Helper()
	cl, ok := e.(core.Cloner)
	if !ok {
		t.Fatalf("%s does not implement core.Cloner", e.Meta().Name)
	}
	c, err := cl.Clone()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Mutate applies every kind of write to a loaded CloneGraph instance:
// vertex and edge creation, property sets on new and existing names,
// property and edge removals, a cascading RemoveVertex of a hub, and an
// attribute index (ErrUnsupported is accepted there).
func Mutate(t *testing.T, e core.Engine, res *core.LoadResult) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	v := res.VertexIDs
	ed := res.EdgeIDs
	for i := 0; i < 40; i++ {
		nv, err := e.AddVertex(core.Props{"name": core.S(fmt.Sprint("new", i)), "idx": core.I(int64(1000 + i))})
		must(err)
		_, err = e.AddEdge(nv, v[i], "knows", core.Props{"w": core.I(int64(i))})
		must(err)
		_, err = e.AddEdge(v[i+1], nv, "fresh-label", nil)
		must(err)
		must(e.SetVertexProp(v[10+i], "idx", core.I(int64(-i))))
		must(e.SetVertexProp(v[10+i], "bench_new", core.S("x")))
		must(e.SetEdgeProp(ed[i], "w", core.I(int64(100+i))))
		must(e.SetEdgeProp(ed[i], "bench_w", core.B(true)))
		must(e.RemoveVertexProp(v[60+i], "name"))
		if i%2 == 0 {
			must(e.RemoveEdgeProp(ed[100+i], "w"))
		}
		must(e.RemoveEdge(ed[200+i]))
	}
	// Vertex 0 is a hub: its removal cascades over many edges.
	must(e.RemoveVertex(v[0]))
	must(e.RemoveVertex(v[150]))
	if err := e.BuildVertexPropIndex(cloneIndexProp); err != nil && !errors.Is(err, core.ErrUnsupported) {
		t.Fatal(err)
	}
	_, err := e.AddVertex(core.Props{"name": core.S("v3")})
	must(err)
	must(e.SetVertexProp(v[3], cloneIndexProp, core.S("renamed")))
}

// Dump renders everything observable about e's graph in canonical
// order: counts, every vertex with its properties, incident edges and
// degree, every edge with its ends, label and properties, label and
// property searches, and which attribute indexes exist. Two instances
// with equal dumps answer every query of the workload alike.
func Dump(e core.Engine) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	nv, err := e.CountVertices()
	add("vertices %d %v", nv, err)
	ne, err := e.CountEdges()
	add("edges %d %v", ne, err)
	labels := map[string]bool{}
	for _, id := range ids(e.Edges()) {
		l, err := e.EdgeLabel(id)
		src, dst, err2 := e.EdgeEnds(id)
		p, err3 := e.EdgeProps(id)
		add("e%d %s %d->%d %s %v %v %v", id, l, src, dst, props(p), err, err2, err3)
		labels[l] = true
	}
	for _, id := range ids(e.Vertices()) {
		p, err := e.VertexProps(id)
		out := ids(e.IncidentEdges(id, core.DirOut))
		in := ids(e.IncidentEdges(id, core.DirIn))
		nb := ids(e.Neighbors(id, core.DirBoth))
		deg, derr := e.Degree(id, core.DirBoth)
		add("v%d %s %v out=%v in=%v nb=%v deg=%d %v", id, props(p), err, out, in, nb, deg, derr)
	}
	for _, l := range sortedKeys(labels) {
		add("label %s %v", l, ids(e.EdgesByLabel(l)))
	}
	for i := 0; i < 40; i += 7 {
		name := core.S(fmt.Sprint("v", i))
		add("byprop name=%v %v", name, ids(e.VerticesByProp(cloneIndexProp, name)))
	}
	add("byprop w=3 %v", ids(e.EdgesByProp("w", core.I(3))))
	add("index %s %v", cloneIndexProp, e.HasVertexPropIndex(cloneIndexProp))
	return out
}

func props(p core.Props) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "{"
	for _, k := range keys {
		s += fmt.Sprintf("%s=%v(%v);", k, p[k], p[k].Kind())
	}
	return s + "}"
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SameState fails the test unless got and want have equal dumps and
// equal space accounting.
func SameState(t *testing.T, what string, got, want core.Engine) {
	t.Helper()
	sameDump(t, what, got, want)
	if gs, ws := got.SpaceUsage(), want.SpaceUsage(); !reflect.DeepEqual(gs, ws) {
		t.Errorf("%s: space %+v, want %+v", what, gs, ws)
	}
}

func sameDump(t *testing.T, what string, got, want core.Engine) {
	t.Helper()
	g, w := Dump(got), Dump(want)
	if len(g) != len(w) {
		t.Errorf("%s: dump has %d lines, want %d", what, len(g), len(w))
	}
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s: first difference at line %d:\n got %s\nwant %s", what, i, g[i], w[i])
		}
	}
}

func testCloneMatchesSource(t *testing.T, newEngine func() core.Engine) {
	src, _ := LoadClone(t, newEngine)
	defer src.Close()
	c := CloneOf(t, src)
	defer c.Close()
	if c.Meta() != src.Meta() {
		t.Fatalf("clone meta %+v, source %+v", c.Meta(), src.Meta())
	}
	SameState(t, "clone vs source", c, src)
	// A clone of a clone is a clone too.
	cc := CloneOf(t, c)
	defer cc.Close()
	SameState(t, "clone of clone vs source", cc, src)
}

// testCloneIndependence mutates one side of a (source, clone) pair and
// checks the other still equals a fresh load. Both sides are read
// before the split, so read-side caches are shared state at clone
// time too.
func testCloneIndependence(t *testing.T, newEngine func() core.Engine, mutateClone bool) {
	fresh, _ := LoadClone(t, newEngine)
	defer fresh.Close()
	src, res := LoadClone(t, newEngine)
	defer src.Close()
	_ = Dump(src)
	c := CloneOf(t, src)
	defer c.Close()
	mutated, kept := c, src
	if !mutateClone {
		mutated, kept = src, c
	}
	Mutate(t, mutated, res)
	SameState(t, "untouched side vs fresh load", kept, fresh)

	// The mutated side really changed, and holds the same graph as the
	// same writes applied to a fresh load. Space is not compared: some
	// engines insert a new element's properties in map order, so the
	// shape of their trees after writes varies from run to run.
	ref, _ := LoadClone(t, newEngine)
	defer ref.Close()
	Mutate(t, ref, res)
	sameDump(t, "mutated side vs mutated fresh load", mutated, ref)
	if fmt.Sprint(Dump(mutated)) == fmt.Sprint(Dump(fresh)) {
		t.Fatal("Mutate changed nothing")
	}
}
