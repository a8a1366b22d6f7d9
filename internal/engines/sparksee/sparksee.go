// Package sparksee implements the native engine modelled on Sparksee
// (formerly DEX), whose architecture the paper describes as "clusters of
// bitmaps" (Section 3.2, citing Martínez-Bazán et al., IDEAS 2012):
//
//   - every object (node or edge) has a sequential OID;
//   - object sets are compressed bitmaps: one for nodes, one for edges,
//     one per edge label, one per incident direction per node;
//   - every attribute is a pair of maps — OID→value and value→bitmap —
//     so many operations become bitwise bitmap work.
//
// The modelled behaviours match the paper's findings:
//
//   - counting (Q8, Q9) is a container popcount — Sparksee is fastest;
//   - create/update/delete touch a map entry and a few bits — fastest
//     CUD of the study;
//   - the degree-filter queries (Q28–Q31) go through the engine's
//     Gremlin adapter, which retains per-label intermediates per visited
//     node; on graphs with both many nodes and many edge labels (the
//     Freebase family) this exhausts the memory budget and the engine
//     returns core.ErrOutOfMemory — "linked to a known problem in the
//     Gremlin implementation";
//   - user attribute indexes are accepted but ignored: the paper found
//     "Sparksee and Neo4J (v.3.0) are not able to take advantage of such
//     indexes", so searches stay scans.
package sparksee

import (
	"maps"
	"slices"
	"sync/atomic"

	"repro/internal/bitmap"
	"repro/internal/core"
)

// DefaultMemBudget bounds the bytes the modelled Gremlin adapter may
// retain during a single full-graph traversal before the engine reports
// core.ErrOutOfMemory.
const DefaultMemBudget = 256 << 20

// Engine is a Sparksee-style bitmap graph store.
type Engine struct {
	core.PlanStatsHolder

	nextOID uint64
	nodes   *bitmap.Bitmap
	edges   *bitmap.Bitmap

	links   map[uint64]link // edge -> endpoints and label
	byLabel map[uint32]*bitmap.Bitmap
	labels  []string
	labelID map[string]uint32

	out map[uint64]*bitmap.Bitmap // node -> outgoing edge set
	in  map[uint64]*bitmap.Bitmap // node -> incoming edge set

	vattrs map[string]*attrStore
	eattrs map[string]*attrStore

	// declared user indexes (accepted, not exploited — see package doc)
	declaredIndexes map[string]bool

	// Gremlin-adapter retention accounting.
	memBudget int64
	// retained is atomic: it is bumped on read paths (Degree), which may
	// run concurrently under the core.Engine concurrent-read contract.
	retained atomic.Int64
}

// link is an edge's endpoints and label token, kept in one map entry
// per edge so writes, removals and copies touch one map, not three.
type link struct {
	src, dst uint64
	label    uint32
}

// attrStore is the paper's per-attribute structure: a map from OIDs to
// values plus a bitmap per distinct value.
type attrStore struct {
	vals  map[uint64]core.Value
	byVal map[core.Value]*bitmap.Bitmap
}

func newAttrStore() *attrStore {
	return &attrStore{
		vals:  make(map[uint64]core.Value),
		byVal: make(map[core.Value]*bitmap.Bitmap),
	}
}

func cloneAttrs(m map[string]*attrStore) map[string]*attrStore {
	out := make(map[string]*attrStore, len(m))
	for name, a := range m {
		out[name] = &attrStore{vals: maps.Clone(a.vals), byVal: bitmap.CloneMap(a.byVal)}
	}
	return out
}

func (a *attrStore) set(oid uint64, v core.Value) {
	if old, ok := a.vals[oid]; ok {
		if b := a.byVal[old]; b != nil {
			b.Remove(oid)
			if b.IsEmpty() {
				delete(a.byVal, old)
			}
		}
	}
	a.vals[oid] = v
	b := a.byVal[v]
	if b == nil {
		b = bitmap.New()
		a.byVal[v] = b
	}
	b.Add(oid)
}

func (a *attrStore) remove(oid uint64) {
	if old, ok := a.vals[oid]; ok {
		if b := a.byVal[old]; b != nil {
			b.Remove(oid)
			if b.IsEmpty() {
				delete(a.byVal, old)
			}
		}
		delete(a.vals, oid)
	}
}

func (a *attrStore) bytes() int64 {
	var n int64 = 96
	for _, v := range a.vals {
		n += 24 + v.Bytes()
	}
	for v, b := range a.byVal {
		n += v.Bytes() + b.Bytes()
	}
	return n
}

// Option configures the engine.
type Option func(*Engine)

// WithMemBudget overrides the Gremlin-adapter retention budget.
func WithMemBudget(bytes int64) Option {
	return func(e *Engine) { e.memBudget = bytes }
}

// New returns an empty engine.
func New(opts ...Option) *Engine {
	e := &Engine{
		nodes:           bitmap.New(),
		edges:           bitmap.New(),
		links:           make(map[uint64]link),
		byLabel:         make(map[uint32]*bitmap.Bitmap),
		labelID:         make(map[string]uint32),
		out:             make(map[uint64]*bitmap.Bitmap),
		in:              make(map[uint64]*bitmap.Bitmap),
		vattrs:          make(map[string]*attrStore),
		eattrs:          make(map[string]*attrStore),
		declaredIndexes: make(map[string]bool),
		memBudget:       DefaultMemBudget,
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Clone implements core.Cloner: every bitmap is copied — each map of
// bitmaps in a handful of allocations (see bitmap.CloneMap) — and the
// link maps, attribute maps, dictionaries and retention accounting by
// value.
func (e *Engine) Clone() (core.Engine, error) {
	c := &Engine{
		nextOID:         e.nextOID,
		nodes:           e.nodes.Clone(),
		edges:           e.edges.Clone(),
		links:           maps.Clone(e.links),
		byLabel:         bitmap.CloneMap(e.byLabel),
		labels:          slices.Clone(e.labels),
		labelID:         maps.Clone(e.labelID),
		out:             bitmap.CloneMap(e.out),
		in:              bitmap.CloneMap(e.in),
		vattrs:          cloneAttrs(e.vattrs),
		eattrs:          cloneAttrs(e.eattrs),
		declaredIndexes: maps.Clone(e.declaredIndexes),
		memBudget:       e.memBudget,
	}
	c.retained.Store(e.retained.Load())
	c.CopyPlanStats(&e.PlanStatsHolder)
	return c, nil
}

// Meta implements core.Engine.
func (e *Engine) Meta() core.EngineMeta {
	return core.EngineMeta{
		Name:          "sparksee",
		Kind:          core.KindNative,
		Substrate:     "Native",
		Storage:       "Indexed bitmaps",
		EdgeTraversal: "B+Tree/Bitmap",
		Gremlin:       "2.6",
		Execution:     "Programming API, non-optimized",
	}
}

func (e *Engine) labelTok(l string) uint32 {
	if t, ok := e.labelID[l]; ok {
		return t
	}
	t := uint32(len(e.labels))
	e.labelID[l] = t
	e.labels = append(e.labels, l)
	e.byLabel[t] = bitmap.New()
	return t
}

// --- vertex CRUD ---

// AddVertex implements core.Engine.
func (e *Engine) AddVertex(props core.Props) (core.ID, error) {
	oid := e.nextOID
	e.nextOID++
	e.nodes.Add(oid)
	for k, v := range props {
		e.vattr(k).set(oid, v)
	}
	return core.ID(oid), nil
}

func (e *Engine) vattr(name string) *attrStore {
	a := e.vattrs[name]
	if a == nil {
		a = newAttrStore()
		e.vattrs[name] = a
	}
	return a
}

func (e *Engine) eattr(name string) *attrStore {
	a := e.eattrs[name]
	if a == nil {
		a = newAttrStore()
		e.eattrs[name] = a
	}
	return a
}

// HasVertex implements core.Engine.
func (e *Engine) HasVertex(id core.ID) bool {
	return id >= 0 && e.nodes.Contains(uint64(id))
}

// VertexProps implements core.Engine.
func (e *Engine) VertexProps(id core.ID) (core.Props, error) {
	if !e.HasVertex(id) {
		return nil, core.ErrNotFound
	}
	p := core.Props{}
	for name, a := range e.vattrs {
		if v, ok := a.vals[uint64(id)]; ok {
			p[name] = v
		}
	}
	if len(p) == 0 {
		return nil, nil
	}
	return p, nil
}

// VertexProp implements core.Engine.
func (e *Engine) VertexProp(id core.ID, name string) (core.Value, bool) {
	if !e.HasVertex(id) {
		return core.Nil, false
	}
	a := e.vattrs[name]
	if a == nil {
		return core.Nil, false
	}
	v, ok := a.vals[uint64(id)]
	return v, ok
}

// SetVertexProp implements core.Engine.
func (e *Engine) SetVertexProp(id core.ID, name string, v core.Value) error {
	if !e.HasVertex(id) {
		return core.ErrNotFound
	}
	e.vattr(name).set(uint64(id), v)
	return nil
}

// RemoveVertexProp implements core.Engine.
func (e *Engine) RemoveVertexProp(id core.ID, name string) error {
	if !e.HasVertex(id) {
		return core.ErrNotFound
	}
	if a := e.vattrs[name]; a != nil {
		a.remove(uint64(id))
	}
	return nil
}

// RemoveVertex implements core.Engine.
func (e *Engine) RemoveVertex(id core.ID) error {
	if !e.HasVertex(id) {
		return core.ErrNotFound
	}
	oid := uint64(id)
	var incident []uint64
	if b := e.out[oid]; b != nil {
		incident = append(incident, b.Slice()...)
	}
	if b := e.in[oid]; b != nil {
		incident = append(incident, b.Slice()...)
	}
	for _, eid := range incident {
		if e.edges.Contains(eid) {
			e.RemoveEdge(core.ID(eid))
		}
	}
	for _, a := range e.vattrs {
		a.remove(oid)
	}
	delete(e.out, oid)
	delete(e.in, oid)
	e.nodes.Remove(oid)
	return nil
}

// --- edge CRUD ---

// AddEdge implements core.Engine.
func (e *Engine) AddEdge(src, dst core.ID, label string, props core.Props) (core.ID, error) {
	if !e.HasVertex(src) || !e.HasVertex(dst) {
		return core.NoID, core.ErrNotFound
	}
	oid := e.nextOID
	e.nextOID++
	e.edges.Add(oid)
	tok := e.labelTok(label)
	e.links[oid] = link{src: uint64(src), dst: uint64(dst), label: tok}
	e.byLabel[tok].Add(oid)
	ob := e.out[uint64(src)]
	if ob == nil {
		ob = bitmap.New()
		e.out[uint64(src)] = ob
	}
	ob.Add(oid)
	ib := e.in[uint64(dst)]
	if ib == nil {
		ib = bitmap.New()
		e.in[uint64(dst)] = ib
	}
	ib.Add(oid)
	for k, v := range props {
		e.eattr(k).set(oid, v)
	}
	return core.ID(oid), nil
}

// HasEdge implements core.Engine.
func (e *Engine) HasEdge(id core.ID) bool {
	return id >= 0 && e.edges.Contains(uint64(id))
}

// EdgeLabel implements core.Engine.
func (e *Engine) EdgeLabel(id core.ID) (string, error) {
	if !e.HasEdge(id) {
		return "", core.ErrNotFound
	}
	return e.labels[e.links[uint64(id)].label], nil
}

// EdgeEnds implements core.Engine.
func (e *Engine) EdgeEnds(id core.ID) (core.ID, core.ID, error) {
	if !e.HasEdge(id) {
		return core.NoID, core.NoID, core.ErrNotFound
	}
	l := e.links[uint64(id)]
	return core.ID(l.src), core.ID(l.dst), nil
}

// EdgeProps implements core.Engine.
func (e *Engine) EdgeProps(id core.ID) (core.Props, error) {
	if !e.HasEdge(id) {
		return nil, core.ErrNotFound
	}
	p := core.Props{}
	for name, a := range e.eattrs {
		if v, ok := a.vals[uint64(id)]; ok {
			p[name] = v
		}
	}
	if len(p) == 0 {
		return nil, nil
	}
	return p, nil
}

// EdgeProp implements core.Engine.
func (e *Engine) EdgeProp(id core.ID, name string) (core.Value, bool) {
	if !e.HasEdge(id) {
		return core.Nil, false
	}
	a := e.eattrs[name]
	if a == nil {
		return core.Nil, false
	}
	v, ok := a.vals[uint64(id)]
	return v, ok
}

// SetEdgeProp implements core.Engine.
func (e *Engine) SetEdgeProp(id core.ID, name string, v core.Value) error {
	if !e.HasEdge(id) {
		return core.ErrNotFound
	}
	e.eattr(name).set(uint64(id), v)
	return nil
}

// RemoveEdgeProp implements core.Engine.
func (e *Engine) RemoveEdgeProp(id core.ID, name string) error {
	if !e.HasEdge(id) {
		return core.ErrNotFound
	}
	if a := e.eattrs[name]; a != nil {
		a.remove(uint64(id))
	}
	return nil
}

// RemoveEdge implements core.Engine.
func (e *Engine) RemoveEdge(id core.ID) error {
	if !e.HasEdge(id) {
		return core.ErrNotFound
	}
	oid := uint64(id)
	l := e.links[oid]
	if b := e.out[l.src]; b != nil {
		b.Remove(oid)
	}
	if b := e.in[l.dst]; b != nil {
		b.Remove(oid)
	}
	if b := e.byLabel[l.label]; b != nil {
		b.Remove(oid)
	}
	for _, a := range e.eattrs {
		a.remove(oid)
	}
	delete(e.links, oid)
	e.edges.Remove(oid)
	return nil
}

// ConcurrentReads implements core.ConcurrentReader: Sparksee's modeled
// retention accounting (the paper's OOM-on-degree-filter behaviour)
// accumulates across in-flight reads, so its out-of-memory verdict
// depends on what else is running — the harness must not fan its
// batches out.
func (e *Engine) ConcurrentReads() bool { return false }

// ConcurrentWrites implements core.ConcurrentWriter: denied for the
// same reason reads are vetoed — the retention accounting makes
// results depend on what else is in flight, so a mixed workload has no
// serial schedule to be consistent with. Under core.Guard the engine
// is fully serialized and serves read-only workloads.
func (e *Engine) ConcurrentWrites() bool { return false }
