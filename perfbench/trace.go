package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engines"
)

// method numbers the core.Engine methods the decorator times.
type method int

const (
	mAddVertex method = iota
	mAddEdge
	mHasVertex
	mHasEdge
	mVertexProps
	mEdgeProps
	mVertexProp
	mEdgeProp
	mEdgeLabel
	mEdgeEnds
	mSetVertexProp
	mSetEdgeProp
	mRemoveVertex
	mRemoveEdge
	mRemoveVertexProp
	mRemoveEdgeProp
	mCountVertices
	mCountEdges
	mVertices
	mEdges
	mVerticesByProp
	mEdgesByProp
	mEdgesByLabel
	mNeighbors
	mIncidentEdges
	mDegree
	mBuildVertexPropIndex
	mHasVertexPropIndex
	mBulkLoad
	mSpaceUsage
	nMethods
)

var methodNames = [nMethods]string{
	"AddVertex", "AddEdge", "HasVertex", "HasEdge", "VertexProps",
	"EdgeProps", "VertexProp", "EdgeProp", "EdgeLabel", "EdgeEnds",
	"SetVertexProp", "SetEdgeProp", "RemoveVertex", "RemoveEdge",
	"RemoveVertexProp", "RemoveEdgeProp", "CountVertices", "CountEdges",
	"Vertices", "Edges", "VerticesByProp", "EdgesByProp", "EdgesByLabel",
	"Neighbors", "IncidentEdges", "Degree", "BuildVertexPropIndex",
	"HasVertexPropIndex", "BulkLoad", "SpaceUsage",
}

// reportedMethods are the methods whose calls and busy share the
// traced run reports: every method some workload reaches, bar BulkLoad,
// which is reported on its own.
var reportedMethods = []method{
	mAddEdge, mAddVertex, mBuildVertexPropIndex, mDegree, mEdgeLabel,
	mEdgeProp, mEdges, mEdgesByLabel, mEdgesByProp, mHasEdge, mHasVertex,
	mIncidentEdges, mNeighbors, mRemoveEdge, mRemoveEdgeProp, mRemoveVertex,
	mRemoveVertexProp, mSetEdgeProp, mSetVertexProp, mSpaceUsage,
	mVertexProp, mVertexProps, mVertices, mVerticesByProp,
}

// lsmStats are the LSM counters of titan's Stats, summed over stores.
type lsmStats struct {
	flushes, compacts, runs, hits, misses int
}

// statser is titan's view of its LSM store.
type statser interface {
	Stats() (flushes, compacts, runs, cacheHits, cacheMisses int)
}

// counts is a set of per-method call counts and busy times, plus the
// number of items engine iterators yielded.
type counts struct {
	calls  [nMethods]int64
	busyNS [nMethods]int64
	pulled int64
}

func (c *counts) add(o *counts) {
	for m := range c.calls {
		c.calls[m] += o.calls[m]
		c.busyNS[m] += o.busyNS[m]
	}
	c.pulled += o.pulled
}

// busy sums the busy time of the given methods, or of every method
// when none are given.
func (c *counts) busy(ms ...method) time.Duration {
	var ns int64
	if len(ms) == 0 {
		for _, v := range c.busyNS {
			ns += v
		}
	}
	for _, m := range ms {
		ns += c.busyNS[m]
	}
	return time.Duration(ns)
}

// tracer collects the counts of every engine instance it decorated,
// per engine name. An instance folds its counts in when it is closed
// (the harness closes every engine it builds) or on collect.
type tracer struct {
	mu       sync.Mutex
	byEngine map[string]*counts
	lsm      lsmStats // of the titan engines closed while traced
}

func newTracer() *tracer { return &tracer{byEngine: map[string]*counts{}} }

func (t *tracer) fold(name string, c *counts) {
	t.mu.Lock()
	defer t.mu.Unlock()
	dst := t.byEngine[name]
	if dst == nil {
		dst = &counts{}
		t.byEngine[name] = dst
	}
	dst.add(c)
}

// total sums the counts of every engine.
func (t *tracer) total() *counts {
	t.mu.Lock()
	defer t.mu.Unlock()
	var c counts
	for _, e := range t.byEngine {
		c.add(e)
	}
	return &c
}

// registerAll re-registers every engine name with a constructor that
// decorates the original one, so the harness builds traced engines.
// The returned function restores the plain constructors.
func (t *tracer) registerAll() (restore func()) {
	var undo []func()
	for _, name := range engines.Names() {
		plain := engines.Constructor(name)
		undo = append(undo, engines.Register(name, func() core.Engine {
			return t.wrap(name, plain())
		}))
	}
	return func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
}

func (t *tracer) wrap(name string, e core.Engine) *tracedEngine {
	return &tracedEngine{inner: e, name: name, t: t}
}

// tracedEngine is a core.Engine decorator that counts and times every
// call. Iterator-returning methods are charged for the call and for
// every pull from the returned iterator, so a method's busy time covers
// the engine's work until the iterator is drained.
//
// It also implements the optional capabilities (ConcurrentReader,
// ConcurrentWriter, PlanStatsProvider) and answers them exactly as the
// callers of an engine that lacks one would assume — reads fan out, no
// concurrent writes, no planner statistics — so core.Guard, the harness
// and the gremlin optimizer behave as they do on the plain engine.
type tracedEngine struct {
	inner core.Engine
	name  string
	t     *tracer

	calls  [nMethods]atomic.Int64
	busyNS [nMethods]atomic.Int64
	pulled atomic.Int64
	folded atomic.Bool
}

var (
	_ core.Engine            = (*tracedEngine)(nil)
	_ core.ConcurrentReader  = (*tracedEngine)(nil)
	_ core.ConcurrentWriter  = (*tracedEngine)(nil)
	_ core.PlanStatsProvider = (*tracedEngine)(nil)
)

func (d *tracedEngine) done(m method, start time.Time) {
	d.calls[m].Add(1)
	d.busyNS[m].Add(int64(time.Since(start)))
}

func (d *tracedEngine) iter(m method, start time.Time, it core.Iter[core.ID]) core.Iter[core.ID] {
	d.done(m, start)
	return func() (core.ID, bool) {
		t0 := time.Now()
		id, ok := it()
		d.busyNS[m].Add(int64(time.Since(t0)))
		if ok {
			d.pulled.Add(1)
		}
		return id, ok
	}
}

// snapshot reads the instance's counts.
func (d *tracedEngine) snapshot() *counts {
	var c counts
	for m := range c.calls {
		c.calls[m] = d.calls[m].Load()
		c.busyNS[m] = d.busyNS[m].Load()
	}
	c.pulled = d.pulled.Load()
	return &c
}

// collect folds the instance's counts into its tracer once.
func (d *tracedEngine) collect() {
	if d.folded.CompareAndSwap(false, true) {
		d.t.fold(d.name, d.snapshot())
	}
}

func (d *tracedEngine) ConcurrentReads() bool {
	if cr, ok := d.inner.(core.ConcurrentReader); ok {
		return cr.ConcurrentReads()
	}
	return true
}

func (d *tracedEngine) ConcurrentWrites() bool {
	if cw, ok := d.inner.(core.ConcurrentWriter); ok {
		return cw.ConcurrentWrites()
	}
	return false
}

func (d *tracedEngine) PlanStats() *core.PlanStats {
	if p, ok := d.inner.(core.PlanStatsProvider); ok {
		return p.PlanStats()
	}
	return nil
}

func (d *tracedEngine) Meta() core.EngineMeta { return d.inner.Meta() }

func (d *tracedEngine) Close() error {
	if st, ok := d.inner.(statser); ok {
		f, c, r, h, m := st.Stats()
		d.t.mu.Lock()
		d.t.lsm.flushes += f
		d.t.lsm.compacts += c
		d.t.lsm.runs += r
		d.t.lsm.hits += h
		d.t.lsm.misses += m
		d.t.mu.Unlock()
	}
	err := d.inner.Close()
	d.collect()
	return err
}

func (d *tracedEngine) AddVertex(props core.Props) (core.ID, error) {
	defer d.done(mAddVertex, time.Now())
	return d.inner.AddVertex(props)
}

func (d *tracedEngine) AddEdge(src, dst core.ID, label string, props core.Props) (core.ID, error) {
	defer d.done(mAddEdge, time.Now())
	return d.inner.AddEdge(src, dst, label, props)
}

func (d *tracedEngine) HasVertex(id core.ID) bool {
	defer d.done(mHasVertex, time.Now())
	return d.inner.HasVertex(id)
}

func (d *tracedEngine) HasEdge(id core.ID) bool {
	defer d.done(mHasEdge, time.Now())
	return d.inner.HasEdge(id)
}

func (d *tracedEngine) VertexProps(id core.ID) (core.Props, error) {
	defer d.done(mVertexProps, time.Now())
	return d.inner.VertexProps(id)
}

func (d *tracedEngine) EdgeProps(id core.ID) (core.Props, error) {
	defer d.done(mEdgeProps, time.Now())
	return d.inner.EdgeProps(id)
}

func (d *tracedEngine) VertexProp(id core.ID, name string) (core.Value, bool) {
	defer d.done(mVertexProp, time.Now())
	return d.inner.VertexProp(id, name)
}

func (d *tracedEngine) EdgeProp(id core.ID, name string) (core.Value, bool) {
	defer d.done(mEdgeProp, time.Now())
	return d.inner.EdgeProp(id, name)
}

func (d *tracedEngine) EdgeLabel(id core.ID) (string, error) {
	defer d.done(mEdgeLabel, time.Now())
	return d.inner.EdgeLabel(id)
}

func (d *tracedEngine) EdgeEnds(id core.ID) (core.ID, core.ID, error) {
	defer d.done(mEdgeEnds, time.Now())
	return d.inner.EdgeEnds(id)
}

func (d *tracedEngine) SetVertexProp(id core.ID, name string, v core.Value) error {
	defer d.done(mSetVertexProp, time.Now())
	return d.inner.SetVertexProp(id, name, v)
}

func (d *tracedEngine) SetEdgeProp(id core.ID, name string, v core.Value) error {
	defer d.done(mSetEdgeProp, time.Now())
	return d.inner.SetEdgeProp(id, name, v)
}

func (d *tracedEngine) RemoveVertex(id core.ID) error {
	defer d.done(mRemoveVertex, time.Now())
	return d.inner.RemoveVertex(id)
}

func (d *tracedEngine) RemoveEdge(id core.ID) error {
	defer d.done(mRemoveEdge, time.Now())
	return d.inner.RemoveEdge(id)
}

func (d *tracedEngine) RemoveVertexProp(id core.ID, name string) error {
	defer d.done(mRemoveVertexProp, time.Now())
	return d.inner.RemoveVertexProp(id, name)
}

func (d *tracedEngine) RemoveEdgeProp(id core.ID, name string) error {
	defer d.done(mRemoveEdgeProp, time.Now())
	return d.inner.RemoveEdgeProp(id, name)
}

func (d *tracedEngine) CountVertices() (int64, error) {
	defer d.done(mCountVertices, time.Now())
	return d.inner.CountVertices()
}

func (d *tracedEngine) CountEdges() (int64, error) {
	defer d.done(mCountEdges, time.Now())
	return d.inner.CountEdges()
}

func (d *tracedEngine) Vertices() core.Iter[core.ID] {
	t0 := time.Now()
	return d.iter(mVertices, t0, d.inner.Vertices())
}

func (d *tracedEngine) Edges() core.Iter[core.ID] {
	t0 := time.Now()
	return d.iter(mEdges, t0, d.inner.Edges())
}

func (d *tracedEngine) VerticesByProp(name string, v core.Value) core.Iter[core.ID] {
	t0 := time.Now()
	return d.iter(mVerticesByProp, t0, d.inner.VerticesByProp(name, v))
}

func (d *tracedEngine) EdgesByProp(name string, v core.Value) core.Iter[core.ID] {
	t0 := time.Now()
	return d.iter(mEdgesByProp, t0, d.inner.EdgesByProp(name, v))
}

func (d *tracedEngine) EdgesByLabel(label string) core.Iter[core.ID] {
	t0 := time.Now()
	return d.iter(mEdgesByLabel, t0, d.inner.EdgesByLabel(label))
}

func (d *tracedEngine) Neighbors(id core.ID, dir core.Direction, labels ...string) core.Iter[core.ID] {
	t0 := time.Now()
	return d.iter(mNeighbors, t0, d.inner.Neighbors(id, dir, labels...))
}

func (d *tracedEngine) IncidentEdges(id core.ID, dir core.Direction, labels ...string) core.Iter[core.ID] {
	t0 := time.Now()
	return d.iter(mIncidentEdges, t0, d.inner.IncidentEdges(id, dir, labels...))
}

func (d *tracedEngine) Degree(id core.ID, dir core.Direction) (int64, error) {
	defer d.done(mDegree, time.Now())
	return d.inner.Degree(id, dir)
}

func (d *tracedEngine) BuildVertexPropIndex(name string) error {
	defer d.done(mBuildVertexPropIndex, time.Now())
	return d.inner.BuildVertexPropIndex(name)
}

func (d *tracedEngine) HasVertexPropIndex(name string) bool {
	defer d.done(mHasVertexPropIndex, time.Now())
	return d.inner.HasVertexPropIndex(name)
}

func (d *tracedEngine) BulkLoad(g *core.Graph) (*core.LoadResult, error) {
	defer d.done(mBulkLoad, time.Now())
	return d.inner.BulkLoad(g)
}

func (d *tracedEngine) SpaceUsage() core.SpaceReport {
	defer d.done(mSpaceUsage, time.Now())
	return d.inner.SpaceUsage()
}
