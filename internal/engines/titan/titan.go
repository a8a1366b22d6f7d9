// Package titan implements the hybrid engine modelled on Titan over
// Cassandra as the paper characterizes it: the graph is a collection of
// adjacency lists stored in a log-structured column store
// (internal/lsm plays the Cassandra role).
//
// Architecture reproduced (Section 3.2):
//
//   - each vertex is a row; its properties and its incident edges are
//     columns of that row, so every edge traversal goes through the
//     row-key index (memtable + SSTable probes);
//   - neighbour vertex IDs inside adjacency columns are delta/varint
//     encoded — the compaction trick that makes Titan the most space-
//     efficient engine on hub-heavy graphs (Figure 1);
//   - deletes write tombstones instead of removing data, which is why
//     Titan is *faster* at deletion than at insertion in Figure 3;
//   - writes pass through consistency checks and the storage
//     serialization path, making single-item CUD among the slowest of
//     the study;
//   - v0.5 performs per-write existence/duplicate read-checks (the
//     "consistency checks and schema inference" the paper disabled for
//     loading); v1.0 drops part of that and adds a row cache, which is
//     what made some cached complex queries look unrepresentatively
//     fast (Section 6.3).
package titan

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/enc"
	"repro/internal/lsm"
)

// Version selects the modelled Titan release.
type Version int

// Supported versions.
const (
	V05 Version = iota // consistency checks on writes, no row cache
	V10                // production release: row cache, leaner writes
)

// Key layout: tag(1) | object id (8, big-endian) | column kind (1) | ...
const (
	tagVertexRow = 'V'
	tagEdgeRow   = 'E'
)

const (
	colExists  byte = iota
	colProp         // | propTok(4) -> value
	colOutEdge      // | labelTok(4) | varint(zigzag(dst-id)) varint(eid)
	colInEdge       // | labelTok(4) | varint(zigzag(src-id)) varint(eid)
)

// rowPrefixLen is tag+id+colkind — the row-cache granularity.
const rowPrefixLen = 10

// Engine is a Titan-style columnar graph store.
type Engine struct {
	core.PlanStatsHolder

	version Version
	kv      *lsm.Store

	labels   []string
	labelID  map[string]uint32
	propKeys []string
	propID   map[string]uint32

	nextID int64

	vindexes map[string]map[core.Value]map[core.ID]struct{}
}

// New returns an empty engine of the given version.
func New(v Version) *Engine {
	opts := lsm.DefaultOptions()
	if v == V10 {
		opts.CachePrefixLen = rowPrefixLen
	}
	return &Engine{
		version:  v,
		kv:       lsm.New(opts),
		labelID:  make(map[string]uint32),
		propID:   make(map[string]uint32),
		vindexes: make(map[string]map[core.Value]map[core.ID]struct{}),
	}
}

// Clone implements core.Cloner for volatile engines: the LSM store is
// copied sharing its immutable runs (see lsm.Store.Clone), the
// dictionaries and attribute indexes by value. A durable engine returns
// core.ErrUnsupported — its store is a write-ahead log on disk, and a
// copy would either share or silently drop it.
func (e *Engine) Clone() (core.Engine, error) {
	if e.kv.Durable() {
		return nil, core.ErrUnsupported
	}
	kv, err := e.kv.Clone()
	if err != nil {
		return nil, err
	}
	c := &Engine{
		version:  e.version,
		kv:       kv,
		labels:   slices.Clone(e.labels),
		labelID:  maps.Clone(e.labelID),
		propKeys: slices.Clone(e.propKeys),
		propID:   maps.Clone(e.propID),
		nextID:   e.nextID,
		vindexes: core.CloneVertexIndexes(e.vindexes),
	}
	c.CopyPlanStats(&e.PlanStatsHolder)
	return c, nil
}

// Meta implements core.Engine.
func (e *Engine) Meta() core.EngineMeta {
	name, gremlin := "titan-0.5", "2.6"
	if e.version == V10 {
		name, gremlin = "titan-1.0", "3.0"
	}
	return core.EngineMeta{
		Name:          name,
		Kind:          core.KindHybrid,
		Substrate:     "Columnar",
		Storage:       "Vertex-indexed adjacency list",
		EdgeTraversal: "Row-key index",
		Gremlin:       gremlin,
		Execution:     "Programming API, optimized",
		Optimized:     true,
	}
}

func (e *Engine) labelTok(l string) uint32 {
	if t, ok := e.labelID[l]; ok {
		return t
	}
	t := uint32(len(e.labels))
	e.labelID[l] = t
	e.labels = append(e.labels, l)
	return t
}

func (e *Engine) propTok(p string) uint32 {
	if t, ok := e.propID[p]; ok {
		return t
	}
	t := uint32(len(e.propKeys))
	e.propID[p] = t
	e.propKeys = append(e.propKeys, p)
	return t
}

// --- key construction ---

func rowKey(tag byte, id core.ID, kind byte) []byte {
	k := make([]byte, 0, rowPrefixLen)
	k = append(k, tag)
	k = enc.Uint64(k, uint64(id))
	return append(k, kind)
}

func propKey(tag byte, id core.ID, tok uint32) []byte {
	k := rowKey(tag, id, colProp)
	return binary.BigEndian.AppendUint32(k, tok)
}

func edgeColPrefix(id core.ID, kind byte, tok uint32) []byte {
	k := rowKey(tagVertexRow, id, kind)
	return binary.BigEndian.AppendUint32(k, tok)
}

// edgeColKey encodes the adjacency column: the neighbour is stored as a
// zigzag varint *delta* from the row's own id — the compact-ID encoding
// behind Titan's space advantage on high-degree graphs.
func edgeColKey(id core.ID, kind byte, tok uint32, other core.ID, eid core.ID) []byte {
	k := edgeColPrefix(id, kind, tok)
	k = binary.AppendVarint(k, int64(other)-int64(id))
	return binary.AppendVarint(k, int64(eid))
}

// parseEdgeCol decodes labelTok, neighbour, and edge id from an
// adjacency column key of row id.
func parseEdgeCol(id core.ID, key []byte) (tok uint32, other core.ID, eid core.ID) {
	rest := key[rowPrefixLen:]
	tok = binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	delta, n := binary.Varint(rest)
	eidv, _ := binary.Varint(rest[n:])
	return tok, core.ID(int64(id) + delta), core.ID(eidv)
}

// --- value encoding ---

func encodeValue(v core.Value) []byte {
	out := []byte{byte(v.Kind())}
	switch v.Kind() {
	case core.KindString:
		out = append(out, v.Str()...)
	case core.KindInt:
		out = binary.BigEndian.AppendUint64(out, uint64(v.Int()))
	case core.KindFloat:
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(v.Float()))
	case core.KindBool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		out = append(out, b)
	}
	return out
}

func decodeValue(b []byte) core.Value {
	if len(b) == 0 {
		return core.Nil
	}
	switch core.Kind(b[0]) {
	case core.KindString:
		return core.S(string(b[1:]))
	case core.KindInt:
		return core.I(int64(binary.BigEndian.Uint64(b[1:])))
	case core.KindFloat:
		return core.F(math.Float64frombits(binary.BigEndian.Uint64(b[1:])))
	case core.KindBool:
		return core.B(b[1] == 1)
	default:
		return core.Nil
	}
}

// edge row value: src(8) dst(8) labelTok(4)
func encodeEdgeRow(src, dst core.ID, tok uint32) []byte {
	out := binary.BigEndian.AppendUint64(nil, uint64(src))
	out = binary.BigEndian.AppendUint64(out, uint64(dst))
	return binary.BigEndian.AppendUint32(out, tok)
}

func decodeEdgeRow(b []byte) (src, dst core.ID, tok uint32) {
	return core.ID(binary.BigEndian.Uint64(b)),
		core.ID(binary.BigEndian.Uint64(b[8:])),
		binary.BigEndian.Uint32(b[16:])
}

// --- index helpers ---

func (e *Engine) indexAdd(name string, v core.Value, id core.ID) {
	idx, ok := e.vindexes[name]
	if !ok {
		return
	}
	set := idx[v]
	if set == nil {
		set = make(map[core.ID]struct{})
		idx[v] = set
	}
	set[id] = struct{}{}
}

func (e *Engine) indexRemove(name string, v core.Value, id core.ID) {
	if idx, ok := e.vindexes[name]; ok {
		if set := idx[v]; set != nil {
			delete(set, id)
			if len(set) == 0 {
				delete(idx, v)
			}
		}
	}
}

// ConcurrentWrites implements core.ConcurrentWriter: the LSM store's
// read-side row cache is internally locked and never affects results,
// so under core.Guard's exclusive-writer discipline mixed read/write
// workloads are serial-schedule consistent.
func (e *Engine) ConcurrentWrites() bool { return true }
