// Package sqlg implements the hybrid engine modelled on Sqlg over
// Postgres as the paper characterizes it: Apache TinkerPop implemented
// on a relational engine (internal/rel plays the Postgres role).
//
// Architecture reproduced (Section 3.2):
//
//   - one table for vertices and one join table per edge label, with
//     primary-key and foreign-key (src/dst) B+Tree indexes;
//   - a single-label hop is an indexed join on one table — the fast path
//     behind Sqlg winning half the complex queries in Figure 2;
//   - an *unfiltered* hop must union joins over every edge table, so
//     traversals on label-rich graphs (Freebase: thousands of labels)
//     pay a per-hop cost proportional to label cardinality — the slow
//     BFS/shortest-path behaviour of Figures 6 and 7;
//   - property search is a relational scan (fast relative to the native
//     engines' property-chain walks) and becomes an index seek once the
//     user creates an attribute index — the up-to-600× speed-up of
//     Figure 4(c);
//   - setting a property name the schema has not seen is ALTER TABLE,
//     i.e. a row rewrite — the slow CUD path the paper observes "where
//     it has to change the table structure".
package sqlg

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/rel"
)

// Edge IDs carry their label table in the top bits (vertices use table
// index 0).
const tableBits = 44

func makeEdgeID(tableIdx int, seq int64) core.ID {
	return core.ID(int64(tableIdx+1)<<tableBits | seq)
}

func splitEdgeID(id core.ID) (tableIdx int, ok bool) {
	t := int(int64(id) >> tableBits)
	return t - 1, t >= 1
}

// Engine is a Sqlg-style relational graph store.
type Engine struct {
	core.PlanStatsHolder

	db         *rel.DB
	vtab       *rel.Table
	etabs      []*rel.Table // per label
	labelOf    map[string]int
	labels     []string
	nextVertex int64
	nextEdge   int64
	vindexed   map[string]bool
}

// New returns an empty engine.
func New() *Engine {
	db := rel.NewDB()
	vt, err := db.CreateTable("V", "id")
	if err != nil {
		panic("sqlg: " + err.Error())
	}
	return &Engine{
		db:       db,
		vtab:     vt,
		labelOf:  make(map[string]int),
		vindexed: make(map[string]bool),
	}
}

// Clone implements core.Cloner: the relational database is copied
// table by table (see rel.DB.Clone) and the engine's table handles are
// re-resolved in the copy by name.
func (e *Engine) Clone() (core.Engine, error) {
	db := e.db.Clone()
	c := &Engine{
		db:         db,
		vtab:       db.Table(e.vtab.Name()),
		etabs:      make([]*rel.Table, len(e.etabs)),
		labelOf:    maps.Clone(e.labelOf),
		labels:     slices.Clone(e.labels),
		nextVertex: e.nextVertex,
		nextEdge:   e.nextEdge,
		vindexed:   maps.Clone(e.vindexed),
	}
	for i, t := range e.etabs {
		c.etabs[i] = db.Table(t.Name())
	}
	c.CopyPlanStats(&e.PlanStatsHolder)
	return c, nil
}

// Meta implements core.Engine.
func (e *Engine) Meta() core.EngineMeta {
	return core.EngineMeta{
		Name:          "sqlg",
		Kind:          core.KindHybrid,
		Substrate:     "Relational",
		Storage:       "Tables",
		EdgeTraversal: "Table join",
		Gremlin:       "3.2",
		Execution:     "SQL, optimized",
	}
}

func (e *Engine) edgeTable(label string) (*rel.Table, int) {
	if i, ok := e.labelOf[label]; ok {
		return e.etabs[i], i
	}
	name := "E_" + label
	t, err := e.db.CreateTable(name, "id", "src", "dst")
	if err != nil {
		// Label collision after sanitization: disambiguate.
		name = fmt.Sprintf("E_%s_%d", label, len(e.etabs))
		t, err = e.db.CreateTable(name, "id", "src", "dst")
		if err != nil {
			panic("sqlg: " + err.Error())
		}
	}
	// Foreign-key indexes, as Sqlg creates for endpoint columns.
	if err := t.CreateIndex("src"); err != nil {
		panic("sqlg: " + err.Error())
	}
	if err := t.CreateIndex("dst"); err != nil {
		panic("sqlg: " + err.Error())
	}
	i := len(e.etabs)
	e.etabs = append(e.etabs, t)
	e.labels = append(e.labels, label)
	e.labelOf[label] = i
	return t, i
}

// ensureColumn adds a property column, paying the ALTER TABLE row
// rewrite when the name is new to the table.
func ensureColumn(t *rel.Table, col string) {
	if !t.HasColumn(col) {
		_ = t.AlterAddColumn(col)
	}
}

// rowToProps converts a row to a property set, skipping system columns
// and NULLs.
func rowToProps(t *rel.Table, r rel.Row, skip int) core.Props {
	cols := t.Columns()
	p := core.Props{}
	for i := skip; i < len(r); i++ {
		if !r[i].IsNil() {
			p[cols[i]] = r[i]
		}
	}
	if len(p) == 0 {
		return nil
	}
	return p
}

func sortedIDs(ids []core.ID) []core.ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ConcurrentWrites implements core.ConcurrentWriter: the relational
// tables are mutated only by write operations and the planner's
// read-side counters are atomics, so under core.Guard's
// exclusive-writer discipline mixed read/write workloads are
// serial-schedule consistent.
func (e *Engine) ConcurrentWrites() bool { return true }
