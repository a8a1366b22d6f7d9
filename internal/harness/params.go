package harness

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/workload"
)

// paramPoolPerQuery reserves this many distinct picks per query so that
// batch iterations of destructive queries never collide with each other
// or with other queries' targets.
const paramPoolPerQuery = 64

// ParamGen derives per-query, per-iteration parameters from the dataset
// graph — never from an engine — and translates them to engine IDs via
// the engine's LoadResult. The same (dataset, seed) therefore yields
// the same logical choices for every engine, which is the paper's
// fairness requirement.
//
// After construction a ParamGen is read-only except for SetDepth, so
// For may be called from concurrent batch iterations (Config.
// CellWorkers); SetDepth must only be called between batches.
type ParamGen struct {
	g     *core.Graph
	picks datasets.Picks

	label      string
	vPropName  string
	vPropValue core.Value
	ePropName  string
	ePropValue core.Value
	k          int64
	depth      int
}

// NewParamGen draws the dataset-level choices.
func NewParamGen(g *core.Graph, seed int64) *ParamGen {
	pg := &ParamGen{
		g: g,
		// Enough picks for every query's pool plus headroom.
		picks: datasets.Pick(g, seed, paramPoolPerQuery*40),
		depth: 2,
	}
	// Label: the label of the first picked edge.
	if len(pg.picks.Edges) > 0 {
		pg.label = g.EdgeL[pg.picks.Edges[0]].Label
	}
	// Vertex property: the lexicographically first property of the
	// first picked vertex that carries one.
	for _, v := range pg.picks.Vertices {
		if name, val, ok := firstProp(g.VProps[v]); ok {
			pg.vPropName, pg.vPropValue = name, val
			break
		}
	}
	// Edge property: same over picked edges. Datasets without edge
	// properties (all but ldbc) get a never-matching probe, as in the
	// paper where such searches return empty.
	pg.ePropName, pg.ePropValue = "absent", core.I(-1)
	for _, ei := range pg.picks.Edges {
		if name, val, ok := firstProp(g.EdgeL[ei].Props); ok {
			pg.ePropName, pg.ePropValue = name, val
			break
		}
	}
	// Degree threshold: twice the average degree, at least 2.
	if g.NumVertices() > 0 {
		pg.k = int64(4 * g.NumEdges() / g.NumVertices())
	}
	if pg.k < 2 {
		pg.k = 2
	}
	return pg
}

func firstProp(p core.Props) (string, core.Value, bool) {
	if len(p) == 0 {
		return "", core.Nil, false
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys[0], p[keys[0]], true
}

// SetDepth overrides the BFS depth (Figure 6 sweeps 2–5).
func (pg *ParamGen) SetDepth(d int) { pg.depth = d }

// VPropName exposes the chosen Q11 property name (the one the indexed
// experiment builds its index on).
func (pg *ParamGen) VPropName() string { return pg.vPropName }

// DatasetVertexIndex returns the dataset vertex index behind the pool
// slot (q, iter) — used by benchmarks that recreate deleted vertices.
func (pg *ParamGen) DatasetVertexIndex(q *workload.Query, iter int) int {
	return pg.vertexAt(q.Num, iter, 0)
}

// vertexAt returns the dataset vertex index of the iter-th distinct
// entry of the vertex pool (q, off). datasets.Pick samples with
// replacement, so a pool can repeat a vertex; a destructive batch that
// drew the same target twice would fail its second iteration on an
// already deleted object. Skipping repeats gives every iteration its
// own target, and leaves pools without repeats exactly as drawn.
func (pg *ParamGen) vertexAt(qNum, iter, off int) int {
	base := (qNum*3 + off) * paramPoolPerQuery
	v, _ := nthDistinct(iter, max(paramPoolPerQuery, iter+1), func(slot int) (int, bool) {
		return pg.picks.Vertices[(base+slot)%len(pg.picks.Vertices)], true
	})
	return v
}

// edgeAt is vertexAt for the edge pool of q.
func (pg *ParamGen) edgeAt(qNum, iter int) int {
	base := qNum * paramPoolPerQuery
	ei, _ := nthDistinct(iter, max(paramPoolPerQuery, iter+1), func(slot int) (int, bool) {
		return pg.picks.Edges[(base+slot)%len(pg.picks.Edges)], true
	})
	return ei
}

// nthDistinct returns the iter-th distinct value among the accepted
// values of at(0), ..., at(n-1). If fewer than iter+1 distinct values
// are accepted, it falls back to the iter-th accepted value, repeats
// included, and reports false only if there are not that many either.
func nthDistinct(iter, n int, at func(i int) (int, bool)) (int, bool) {
	seen := make([]int, 0, iter+1)
	fallback, accepted, ok := 0, 0, false
	for i := 0; i < n; i++ {
		x, acc := at(i)
		if !acc {
			continue
		}
		if accepted == iter {
			fallback, ok = x, true
		}
		accepted++
		if slices.Contains(seen, x) {
			continue
		}
		if len(seen) == iter {
			return x, true
		}
		seen = append(seen, x)
	}
	return fallback, ok
}

// For builds the parameters for one execution of q. iter distinguishes
// batch iterations: destructive queries get a distinct target per
// iteration (the iter-th distinct entry of their pool).
func (pg *ParamGen) For(q *workload.Query, iter int, res *core.LoadResult) workload.Params {
	p := workload.Params{
		Label:        pg.label,
		VPropName:    pg.vPropName,
		VPropValue:   pg.vPropValue,
		EPropName:    pg.ePropName,
		EPropValue:   pg.ePropValue,
		NewPropName:  "bench_new",
		NewPropValue: core.I(int64(iter)),
		NewVertex:    core.Props{"bench_name": core.S("created"), "bench_iter": core.I(int64(iter))},
		NewEdgeProps: core.Props{"bench_w": core.I(int64(iter))},
		K:            pg.k,
		Depth:        pg.depth,
	}
	// Non-destructive per-vertex queries reuse the same target across
	// iterations (the paper measures the same op repeatedly); the
	// destructive ones draw from their reserved pool.
	stableIter := 0
	if q.Mutates {
		stableIter = iter
	}
	if len(pg.picks.Vertices) > 0 {
		p.V = res.VertexIDs[pg.vertexAt(q.Num, stableIter, 0)]
		p.V2 = res.VertexIDs[pg.vertexAt(q.Num, stableIter, 1)]
	}
	if len(pg.picks.Edges) > 0 {
		p.E = res.EdgeIDs[pg.edgeAt(q.Num, stableIter)]
	}
	// Q16/Q20 need an existing vertex property on the target; Q17/Q21
	// an existing edge property. Retarget onto objects that have them.
	switch q.Num {
	case 16, 20:
		if v, ok := pg.vertexWithProp(stableIter); ok {
			p.V = res.VertexIDs[v]
			p.VPropName, _, _ = firstProp(pg.g.VProps[v])
		}
	case 17, 21:
		if ei, ok := pg.edgeWithProp(stableIter); ok {
			p.E = res.EdgeIDs[ei]
			p.EPropName, _, _ = firstProp(pg.g.EdgeL[ei].Props)
		}
	}
	return p
}

// vertexWithProp returns the iter-th distinct picked vertex that has a
// property (see vertexAt for why distinct).
func (pg *ParamGen) vertexWithProp(iter int) (int, bool) {
	return nthDistinct(iter, len(pg.picks.Vertices), func(i int) (int, bool) {
		v := pg.picks.Vertices[i]
		return v, len(pg.g.VProps[v]) > 0
	})
}

// edgeWithProp is vertexWithProp over the picked edges.
func (pg *ParamGen) edgeWithProp(iter int) (int, bool) {
	return nthDistinct(iter, len(pg.picks.Edges), func(i int) (int, bool) {
		ei := pg.picks.Edges[i]
		return ei, len(pg.g.EdgeL[ei].Props) > 0
	})
}

// ComplexFor draws the complex-workload parameters from the ldbc graph.
func ComplexFor(g *core.Graph, seed int64, res *core.LoadResult) workload.ComplexParams {
	byKind := map[string][]int{}
	for i, p := range g.VProps {
		if k, ok := p["kind"]; ok {
			byKind[k.Str()] = append(byKind[k.Str()], i)
		}
	}
	rng := datasets.Pick(g, seed, 8) // reuse the deterministic picker for ordering
	pick := func(kind string, n int) int {
		s := byKind[kind]
		if len(s) == 0 {
			return 0
		}
		return s[n%len(s)]
	}
	// A person with friends: prefer one that has outgoing knows edges.
	person := pick("person", 0)
	// The snapshot's per-label slice walks exactly the knows edges
	// instead of scanning and comparing all |E| labels.
	outKnows := map[int]int{}
	for _, ei := range g.Snapshot().EdgesWithLabel("knows") {
		outKnows[g.EdgeL[ei].Src]++
	}
	best := person
	for _, v := range byKind["person"] {
		if outKnows[v] > outKnows[best] {
			best = v
		}
	}
	person = best
	_ = rng
	cp := workload.ComplexParams{
		Person:     res.VertexIDs[person],
		City:       res.VertexIDs[pick("place", 0)],
		University: res.VertexIDs[pick("university", 0)],
		Company:    res.VertexIDs[pick("company", 0)],
		NewPerson: core.Props{
			"kind": core.S("person"), "firstName": core.S("Bench"),
			"lastName": core.S("User"), "uid": core.I(int64(g.NumVertices()) + 1),
		},
		K: 5,
	}
	for i := 0; i < 3; i++ {
		cp.Tags = append(cp.Tags, res.VertexIDs[pick("tag", i)])
	}
	return cp
}
