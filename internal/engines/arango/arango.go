// Package arango implements the hybrid engine modelled on ArangoDB 2.8
// as the paper characterizes it: a document store exposed over REST,
// with graph semantics layered on JSON documents.
//
// Architecture reproduced (Section 3.2):
//
//   - every vertex and edge is a self-contained serialized JSON
//     document;
//   - a specialized hash index keyed on edge IDs gives the source,
//     destination and label of each edge without deserializing it,
//     accelerating traversals;
//   - the client/server split is simulated by actually passing every
//     interactive operation's request and response through a JSON codec
//     (the V8 server boundary) — this is the genuine per-operation cost
//     that made per-item Gremlin loading "prohibitively slow" in the
//     paper and why the suite loads via the native bulk path instead;
//   - writes are acknowledged before any durability work (the paper
//     notes updates are registered in RAM and flushed asynchronously,
//     biasing CUD timings in ArangoDB's favour — the same bias exists
//     here: no journal work happens on the write path);
//   - whole-graph edge operations must materialize (deserialize) every
//     edge document, which is why edge iteration rarely finished within
//     the paper's timeout;
//   - attribute indexes are accepted but change nothing ("ArangoDB
//     showed no difference in running times, so we suspect some defect
//     in the Gremlin implementation").
package arango

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/slab"
)

// Engine is an ArangoDB-style document graph store.
type Engine struct {
	core.PlanStatsHolder

	nextID int64
	vdocs  map[core.ID][]byte
	edocs  map[core.ID][]byte

	// Edge hash index: endpoints and label token per edge, plus
	// adjacency lists of edge IDs per vertex.
	edgeIdx map[core.ID]edgeEntry
	outIdx  map[core.ID][]core.ID
	inIdx   map[core.ID][]core.ID

	labels  []string
	labelID map[string]uint32

	declaredIndexes map[string]bool
	// restBytes is atomic: every read operation crosses the simulated
	// REST boundary, and reads may run concurrently (core.Engine).
	restBytes atomic.Int64 // total bytes through the simulated REST boundary
}

type edgeEntry struct {
	src, dst core.ID
	label    uint32
}

// New returns an empty engine.
func New() *Engine {
	return &Engine{
		vdocs:           make(map[core.ID][]byte),
		edocs:           make(map[core.ID][]byte),
		edgeIdx:         make(map[core.ID]edgeEntry),
		outIdx:          make(map[core.ID][]core.ID),
		inIdx:           make(map[core.ID][]core.ID),
		labelID:         make(map[string]uint32),
		declaredIndexes: make(map[string]bool),
	}
}

// Meta implements core.Engine.
func (e *Engine) Meta() core.EngineMeta {
	return core.EngineMeta{
		Name:          "arango",
		Kind:          core.KindHybrid,
		Substrate:     "Document",
		Storage:       "Serialized JSON",
		EdgeTraversal: "Hash index",
		Gremlin:       "2.6",
		Execution:     "AQL, non-optimized (REST/V8 server)",
	}
}

// rest pushes a payload through the simulated client/server JSON
// boundary: marshalled on one side, unmarshalled on the other. Every
// interactive operation calls it once for the request and once for the
// response.
func (e *Engine) rest(payload any) {
	b, err := json.Marshal(payload)
	if err != nil {
		return
	}
	e.restBytes.Add(int64(len(b)))
	var sink any
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	_ = dec.Decode(&sink)
}

type request struct {
	Op    string `json:"op"`
	ID    int64  `json:"id,omitempty"`
	Other int64  `json:"other,omitempty"`
	Name  string `json:"name,omitempty"`
	Value string `json:"value,omitempty"`
}

func (e *Engine) call(op string, id core.ID, args ...string) {
	r := request{Op: op, ID: int64(id)}
	if len(args) > 0 {
		r.Name = args[0]
	}
	if len(args) > 1 {
		r.Value = args[1]
	}
	e.rest(&r)
}

// --- document encoding (JSON, as stored) ---

func (e *Engine) labelTok(l string) uint32 {
	if t, ok := e.labelID[l]; ok {
		return t
	}
	t := uint32(len(e.labels))
	e.labelID[l] = t
	e.labels = append(e.labels, l)
	return t
}

func propsToJSONMap(p core.Props) map[string]any {
	m := make(map[string]any, len(p)+2)
	for k, v := range p {
		switch v.Kind() {
		case core.KindString:
			m[k] = v.Str()
		case core.KindInt:
			m[k] = v.Int()
		case core.KindFloat:
			m[k] = v.Float()
		case core.KindBool:
			m[k] = v.Bool()
		case core.KindNil:
			m[k] = nil
		}
	}
	return m
}

func jsonMapToProps(m map[string]any) (core.Props, error) {
	p := core.Props{}
	for k, v := range m {
		if len(k) > 0 && k[0] == '_' {
			continue // system fields
		}
		switch x := v.(type) {
		case string:
			p[k] = core.S(x)
		case bool:
			p[k] = core.B(x)
		case nil:
			p[k] = core.Nil
		case json.Number:
			if i, err := x.Int64(); err == nil {
				p[k] = core.I(i)
			} else if f, err := x.Float64(); err == nil {
				p[k] = core.F(f)
			} else {
				return nil, fmt.Errorf("arango: bad number %q", x)
			}
		default:
			return nil, fmt.Errorf("arango: unsupported field type %T", v)
		}
	}
	if len(p) == 0 {
		return nil, nil
	}
	return p, nil
}

func (e *Engine) encodeVertexDoc(id core.ID, p core.Props) []byte {
	m := propsToJSONMap(p)
	m["_key"] = int64(id)
	b, _ := json.Marshal(m)
	return b
}

func (e *Engine) encodeEdgeDoc(id core.ID, src, dst core.ID, label string, p core.Props) []byte {
	m := propsToJSONMap(p)
	m["_key"] = int64(id)
	m["_from"] = int64(src)
	m["_to"] = int64(dst)
	m["_label"] = label
	b, _ := json.Marshal(m)
	return b
}

// decodeDoc deserializes a stored document into its property set —
// the materialization step whose cost dominates whole-graph edge
// operations on this engine.
func decodeDoc(doc []byte) (core.Props, error) {
	var m map[string]any
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	return jsonMapToProps(m)
}

func removeID(s []core.ID, id core.ID) []core.ID {
	for i, x := range s {
		if x == id {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func sortedKeys[V any](m map[core.ID]V) []core.ID {
	out := make([]core.ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone implements core.Cloner. Documents are shared: every write
// re-encodes and replaces a document, none is modified in place. The
// maps are copied, and so are the adjacency lists, which removals edit
// in place — all of them into one slab (see slab.Slab).
func (e *Engine) Clone() (core.Engine, error) {
	c := &Engine{
		nextID:          e.nextID,
		vdocs:           maps.Clone(e.vdocs),
		edocs:           maps.Clone(e.edocs),
		edgeIdx:         maps.Clone(e.edgeIdx),
		outIdx:          cloneLists(e.outIdx),
		inIdx:           cloneLists(e.inIdx),
		labels:          slices.Clone(e.labels),
		labelID:         maps.Clone(e.labelID),
		declaredIndexes: maps.Clone(e.declaredIndexes),
	}
	c.CopyPlanStats(&e.PlanStatsHolder)
	c.restBytes.Store(e.restBytes.Load())
	return c, nil
}

func cloneLists(m map[core.ID][]core.ID) map[core.ID][]core.ID {
	n := 0
	for _, l := range m {
		n += cap(l)
	}
	ids := slab.New[core.ID](n)
	out := make(map[core.ID][]core.ID, len(m))
	for k, l := range m {
		out[k] = ids.Copy(l)
	}
	return out
}

// ConcurrentWrites implements core.ConcurrentWriter: the document
// store keeps no result-affecting read-side state (the REST-boundary
// accounting is an atomic byte counter), so under core.Guard's
// exclusive-writer discipline mixed read/write workloads observe
// serial-schedule-consistent documents and adjacency lists.
func (e *Engine) ConcurrentWrites() bool { return true }
