// Package orient implements the native multi-model engine modelled on
// OrientDB's storage architecture as the paper describes it:
//
//   - records live in *clusters* (append-only files); record identity is
//     a logical RID = (cluster, position) resolved through an append-only
//     position map, so records relocate without changing identity;
//   - there is one cluster for vertices and one cluster *per edge label*
//     — the design that makes loading and space sensitive to edge-label
//     cardinality (the paper's Frb-S observation: ~1.8K labels for only
//     ~300K edges put OrientDB second-to-last in space);
//   - vertices are documents embedding their incident-edge RID lists
//     ("2-hop pointer" traversal: node → edge record → node);
//   - documents are rewritten at the tail on every mutation, which is
//     why node/property insertion is fast but edge insertion — which
//     rewrites both endpoint documents — is slower and erratic, exactly
//     the inconsistency Figure 3(b) shows.
package orient

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/pagefile"
)

// RID packing: cluster in the top 20 bits, position in the low 44.
const posBits = 44

func makeRID(cluster int, pos int64) core.ID {
	return core.ID(int64(cluster)<<posBits | pos)
}

func splitRID(id core.ID) (cluster int, pos int64) {
	return int(int64(id) >> posBits), int64(id) & (1<<posBits - 1)
}

const vertexCluster = 0

type cluster struct {
	heap *pagefile.Heap
	pmap *pagefile.PositionMap
}

func newCluster() *cluster {
	return &cluster{heap: pagefile.NewHeap(), pmap: pagefile.NewPositionMap()}
}

// clone copies the cluster's heap and position map (see
// pagefile.Heap.Clone and PositionMap.Clone).
func (c *cluster) clone() *cluster {
	return &cluster{heap: c.heap.Clone(), pmap: c.pmap.Clone()}
}

func (c *cluster) add(doc []byte) int64 {
	return c.pmap.Add(c.heap.Append(doc))
}

func (c *cluster) read(pos int64) ([]byte, bool) {
	phys, ok := c.pmap.Get(pos)
	if !ok {
		return nil, false
	}
	return c.heap.Read(phys)
}

// rewrite relocates the document at pos to the tail.
func (c *cluster) rewrite(pos int64, doc []byte) bool {
	phys, ok := c.pmap.Get(pos)
	if !ok {
		return false
	}
	return c.pmap.Move(pos, c.heap.Update(phys, doc))
}

func (c *cluster) free(pos int64) bool {
	phys, ok := c.pmap.Get(pos)
	if !ok {
		return false
	}
	c.heap.Delete(phys)
	return c.pmap.Free(pos)
}

func (c *cluster) bytes() int64 { return c.heap.Bytes() + c.pmap.Bytes() }

// Engine is an OrientDB-style native graph store.
type Engine struct {
	core.PlanStatsHolder

	vcluster  *cluster
	eclusters []*cluster // index = cluster id - 1
	labels    []string   // cluster id - 1 -> label
	labelOf   map[string]int
	propKeys  map[string]uint32
	keyNames  []string

	// SB-Tree style attribute indexes on vertex properties:
	// name -> value -> set of vertex RIDs.
	vindexes map[string]map[core.Value]map[core.ID]struct{}
}

// New returns an empty engine.
func New() *Engine {
	return &Engine{
		vcluster: newCluster(),
		labelOf:  make(map[string]int),
		propKeys: make(map[string]uint32),
		vindexes: make(map[string]map[core.Value]map[core.ID]struct{}),
	}
}

// Clone implements core.Cloner: every cluster is copied (see
// cluster.clone), the dictionaries and attribute indexes by value.
func (e *Engine) Clone() (core.Engine, error) {
	c := &Engine{
		vcluster:  e.vcluster.clone(),
		eclusters: make([]*cluster, len(e.eclusters)),
		labels:    slices.Clone(e.labels),
		labelOf:   maps.Clone(e.labelOf),
		propKeys:  maps.Clone(e.propKeys),
		keyNames:  slices.Clone(e.keyNames),
		vindexes:  core.CloneVertexIndexes(e.vindexes),
	}
	for i, cl := range e.eclusters {
		c.eclusters[i] = cl.clone()
	}
	c.CopyPlanStats(&e.PlanStatsHolder)
	return c, nil
}

// Meta implements core.Engine.
func (e *Engine) Meta() core.EngineMeta {
	return core.EngineMeta{
		Name:          "orient",
		Kind:          core.KindNative,
		Substrate:     "Native",
		Storage:       "Linked records (clusters + position map)",
		EdgeTraversal: "2-hop pointer",
		Gremlin:       "2.6",
		Execution:     "Mixed",
	}
}

func (e *Engine) keyTok(name string) uint32 {
	if t, ok := e.propKeys[name]; ok {
		return t
	}
	t := uint32(len(e.keyNames))
	e.propKeys[name] = t
	e.keyNames = append(e.keyNames, name)
	return t
}

func (e *Engine) clusterFor(label string) int {
	if c, ok := e.labelOf[label]; ok {
		return c
	}
	e.eclusters = append(e.eclusters, newCluster())
	e.labels = append(e.labels, label)
	c := len(e.eclusters) // cluster ids start at 1
	e.labelOf[label] = c
	return c
}

// --- document encoding ---

func appendProps(doc []byte, e *Engine, p core.Props) []byte {
	doc = binary.LittleEndian.AppendUint32(doc, uint32(len(p)))
	for k, v := range p {
		doc = binary.LittleEndian.AppendUint32(doc, e.keyTok(k))
		doc = append(doc, byte(v.Kind()))
		switch v.Kind() {
		case core.KindString:
			doc = binary.LittleEndian.AppendUint32(doc, uint32(len(v.Str())))
			doc = append(doc, v.Str()...)
		case core.KindInt:
			doc = binary.LittleEndian.AppendUint64(doc, uint64(v.Int()))
		case core.KindFloat:
			doc = binary.LittleEndian.AppendUint64(doc, math.Float64bits(v.Float()))
		case core.KindBool:
			b := byte(0)
			if v.Bool() {
				b = 1
			}
			doc = append(doc, b)
		}
	}
	return doc
}

func readProps(doc []byte, e *Engine) (core.Props, []byte) {
	n := binary.LittleEndian.Uint32(doc)
	doc = doc[4:]
	if n == 0 {
		return nil, doc
	}
	p := make(core.Props, n)
	for i := uint32(0); i < n; i++ {
		tok := binary.LittleEndian.Uint32(doc)
		kind := core.Kind(doc[4])
		doc = doc[5:]
		var v core.Value
		switch kind {
		case core.KindString:
			l := binary.LittleEndian.Uint32(doc)
			v = core.S(string(doc[4 : 4+l]))
			doc = doc[4+l:]
		case core.KindInt:
			v = core.I(int64(binary.LittleEndian.Uint64(doc)))
			doc = doc[8:]
		case core.KindFloat:
			v = core.F(math.Float64frombits(binary.LittleEndian.Uint64(doc)))
			doc = doc[8:]
		case core.KindBool:
			v = core.B(doc[0] == 1)
			doc = doc[1:]
		}
		p[e.keyNames[tok]] = v
	}
	return p, doc
}

func appendRIDs(doc []byte, rids []core.ID) []byte {
	doc = binary.LittleEndian.AppendUint32(doc, uint32(len(rids)))
	for _, r := range rids {
		doc = binary.LittleEndian.AppendUint64(doc, uint64(r))
	}
	return doc
}

func readRIDs(doc []byte) ([]core.ID, []byte) {
	n := binary.LittleEndian.Uint32(doc)
	doc = doc[4:]
	if n == 0 {
		return nil, doc
	}
	out := make([]core.ID, n)
	for i := range out {
		out[i] = core.ID(binary.LittleEndian.Uint64(doc))
		doc = doc[8:]
	}
	return out, doc
}

type vertexDoc struct {
	out, in []core.ID
	props   core.Props
}

func (e *Engine) encodeVertex(d *vertexDoc) []byte {
	doc := appendRIDs(nil, d.out)
	doc = appendRIDs(doc, d.in)
	return appendProps(doc, e, d.props)
}

func (e *Engine) decodeVertex(doc []byte) *vertexDoc {
	var d vertexDoc
	d.out, doc = readRIDs(doc)
	d.in, doc = readRIDs(doc)
	d.props, _ = readProps(doc, e)
	return &d
}

type edgeDoc struct {
	src, dst core.ID
	props    core.Props
}

func (e *Engine) encodeEdge(d *edgeDoc) []byte {
	doc := binary.LittleEndian.AppendUint64(nil, uint64(d.src))
	doc = binary.LittleEndian.AppendUint64(doc, uint64(d.dst))
	return appendProps(doc, e, d.props)
}

func (e *Engine) decodeEdge(doc []byte) *edgeDoc {
	var d edgeDoc
	d.src = core.ID(binary.LittleEndian.Uint64(doc))
	d.dst = core.ID(binary.LittleEndian.Uint64(doc[8:]))
	d.props, _ = readProps(doc[16:], e)
	return &d
}

// edgeEndsFast decodes only the endpoints (fixed prefix), avoiding the
// property blob.
func edgeEndsFast(doc []byte) (src, dst core.ID) {
	return core.ID(binary.LittleEndian.Uint64(doc)), core.ID(binary.LittleEndian.Uint64(doc[8:]))
}

func (e *Engine) readVertex(id core.ID) (*vertexDoc, bool) {
	c, pos := splitRID(id)
	if c != vertexCluster {
		return nil, false
	}
	doc, ok := e.vcluster.read(pos)
	if !ok {
		return nil, false
	}
	return e.decodeVertex(doc), true
}

func (e *Engine) edgeCluster(id core.ID) (*cluster, int64, bool) {
	c, pos := splitRID(id)
	if c < 1 || c > len(e.eclusters) {
		return nil, 0, false
	}
	return e.eclusters[c-1], pos, true
}

func (e *Engine) readEdge(id core.ID) (*edgeDoc, bool) {
	c, pos, ok := e.edgeCluster(id)
	if !ok {
		return nil, false
	}
	doc, ok := c.read(pos)
	if !ok {
		return nil, false
	}
	return e.decodeEdge(doc), true
}

// --- index helpers (SB-Tree style) ---

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

// ConcurrentWrites implements core.ConcurrentWriter: RID chains and
// property records are mutated only by write operations, and read
// paths keep no shared state, so under core.Guard's exclusive-writer
// discipline mixed read/write workloads are serial-schedule
// consistent.
func (e *Engine) ConcurrentWrites() bool { return true }
