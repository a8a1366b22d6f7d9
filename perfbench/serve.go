package main

import (
	"fmt"
	"os"
	"path"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engines"
	"repro/internal/engines/titan"
	"repro/internal/lsm"
	"repro/internal/lsm/fsim"
	"repro/internal/serve"
)

// Both serving workloads drive titan-1.0 over the MiCo graph at scale
// 0.1 (10k vertices, 110k edges) in a closed loop with a fixed op count
// per client, so every round does the same work.
const (
	serveEngine  = "titan-1.0"
	serveDataset = "mico"
	serveScale   = 0.1

	readClients       = 2
	readOpsPerClient  = 10000
	writeOpsPerClient = 200000
	storeDir          = "store"
)

var (
	readMix  = serve.Mix{Read: 70, Traverse: 30}
	writeMix = serve.Mix{Read: 40, Insert: 30, Update: 30}
)

// opMethods maps each serving op kind to the engine methods it calls.
var opMethods = map[string][]method{
	"read":     {mHasVertex, mVertexProps},
	"traverse": {mNeighbors},
	"insert":   {mAddVertex, mAddEdge},
	"update":   {mSetVertexProp},
}

// generate acquires the serving dataset into a fresh artifact cache
// under root, as the i-th set-up, and returns the cache directory.
func generate(root string, i int) (*core.Graph, time.Duration, string) {
	cache := fmt.Sprintf("%s/cache%d", root, i)
	start := time.Now()
	g, _, err := datasets.Acquire(serveDataset, serveScale, cache)
	if err != nil {
		logf("acquire %s: %v", serveDataset, err)
		os.Exit(1)
	}
	return g, time.Since(start), cache
}

func perOp(rep *serve.Report, op string) serve.OpSum {
	for _, s := range rep.PerOp {
		if s.Op == op {
			return s
		}
	}
	return serve.OpSum{Op: op}
}

// serveRounds collects per-round values for medians.
type serveRounds struct {
	plain, traced []*serve.Report
}

// setServeEndToEnd reports throughput and the median latency over all
// ops, each the median over the untraced rounds, and the store's space
// after serving over the loaded graph's raw JSON.
func setServeEndToEnd(b *bench, rs serveRounds, space, raw int64) {
	var tput, p50 []float64
	for _, r := range rs.plain {
		tput = append(tput, r.Throughput)
		p50 = append(p50, float64(r.Latency.P50)/1e3)
	}
	b.set("ops_per_s", "1/s", median(tput))
	b.set("latency_us", "us", median(p50))
	b.set("space_bytes_per_raw_byte", "ratio", float64(space)/float64(raw))
}

// setServeLayers reports the engine and serve layer metrics of the
// traced rounds, per round: engine calls and busy time per method, and
// for each op kind the share of its latency spent outside the engine
// (guard waits, load generation, histograms).
func setServeLayers(b *bench, t *tracer, rs serveRounds) {
	n := float64(len(rs.traced))
	c := t.total()
	setEngineMetrics(b, t, n)
	var opTotal time.Duration
	for _, op := range serveOps {
		var lat time.Duration
		for _, r := range rs.traced {
			s := perOp(r, op)
			lat += time.Duration(s.Mean * s.Count)
		}
		if lat == 0 {
			continue
		}
		opTotal += lat
		b.set("serve.self_share."+op, "ratio", seconds(lat-c.busy(opMethods[op]...))/seconds(lat))
	}
	b.set("serve.engine_share", "ratio", seconds(c.busy())/seconds(opTotal))
	var plain, traced, tails []float64
	for _, r := range rs.plain {
		plain = append(plain, r.Throughput)
		tails = append(tails, float64(r.Latency.P99)/float64(r.Latency.P50))
	}
	for _, r := range rs.traced {
		traced = append(traced, r.Throughput)
	}
	b.set("serve.p99_over_p50", "ratio", median(tails))
	// Time for the same ops, traced over untraced.
	b.set("trace.overhead", "ratio", median(plain)/median(traced))
}

// setLSM reports titan's LSM counters, per round over n rounds.
func setLSM(b *bench, st lsmStats, n float64) {
	if st.hits+st.misses > 0 {
		b.set("lsm.row_cache_hit_ratio", "ratio", float64(st.hits)/float64(st.hits+st.misses))
	}
	b.set("lsm.flushes", "count", float64(st.flushes)/n)
	b.set("lsm.compactions", "count", float64(st.compacts)/n)
	b.set("lsm.runs", "count", float64(st.runs)/n)
}

// checkServeReport counts the round's ops and errors.
func checkServeReport(b *bench, rep *serve.Report, wantOps int64) {
	logf("round: %.0f ops/s, p50/p99 µs by op: %s", rep.Throughput, opSummary(rep))
	b.res.Attempted += rep.Ops
	b.res.Failed += rep.Errors
	if rep.Ops != wantOps {
		b.fail("serving round ran %d ops, want %d", rep.Ops, wantOps)
	}
}

func opSummary(rep *serve.Report) string {
	var s string
	for _, o := range rep.PerOp {
		s += fmt.Sprintf(" %s %.1f/%.1f", o.Op, float64(o.P50)/1e3, float64(o.P99)/1e3)
	}
	return s
}

// checkServeTwins compares a traced round with its untraced twin: the same
// seed must give the same op counts and outcomes.
func checkServeTwins(b *bench, plain, traced *serve.Report) {
	if len(plain.PerOp) != len(traced.PerOp) {
		b.fail("traced round reports %d op kinds, untraced %d", len(traced.PerOp), len(plain.PerOp))
		return
	}
	for i, p := range plain.PerOp {
		tr := traced.PerOp[i]
		if p.Op != tr.Op || p.Count != tr.Count || p.Errors != tr.Errors {
			b.fail("traced %s: %d ops, %d errors; untraced %s: %d ops, %d errors", tr.Op, tr.Count, tr.Errors, p.Op, p.Count, p.Errors)
		}
	}
}

func runServeRead(b *bench, seed int64) {
	root := scratchDir("serve-read-")
	defer os.RemoveAll(root)
	var setup, gens, loads []float64
	var e core.Engine
	var g *core.Graph
	var cache string
	var base []core.ID
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.Close()
		}
		var gen time.Duration
		g, gen, cache = generate(root, i)
		var err error
		if e, err = engines.New(serveEngine); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		start := time.Now()
		res, err := e.BulkLoad(g)
		if err != nil {
			logf("bulk load: %v", err)
			os.Exit(1)
		}
		load := time.Since(start)
		base = res.VertexIDs
		gens = append(gens, seconds(gen))
		loads = append(loads, seconds(load))
		setup = append(setup, seconds(gen+load))
	}
	defer e.Close()
	te := e.(*titan.Engine)

	t := newTracer()
	cfg := serve.Config{
		EngineName: serveEngine, Dataset: serveDataset, Base: base,
		Clients: readClients, Ops: readOpsPerClient, Mix: readMix, Seed: seed,
	}
	run := func(eng core.Engine, round int) *serve.Report {
		cfg.Engine = eng
		cfg.Seed = roundSeed(seed, round)
		runtime.GC() // start every round from the same heap state
		rep, err := serve.Run(cfg)
		if err != nil {
			logf("serve: %v", err)
			os.Exit(1)
		}
		return rep
	}
	run(e, -1) // warm-up: fills the row cache; not measured

	var rs serveRounds
	var st lsmStats
	for i := 0; i < b.rounds; i++ {
		if b.trace && i%2 == 1 {
			// The traced twin replays the previous round's op streams.
			f0, c0, _, h0, m0 := te.Stats()
			d := t.wrap(serveEngine, e)
			rep := run(d, i-1)
			d.collect()
			f1, c1, runs, h1, m1 := te.Stats()
			st.flushes += f1 - f0
			st.compacts += c1 - c0
			st.runs += runs
			st.hits += h1 - h0
			st.misses += m1 - m0
			checkServeReport(b, rep, readClients*readOpsPerClient)
			checkServeTwins(b, rs.plain[len(rs.plain)-1], rep)
			rs.traced = append(rs.traced, rep)
			continue
		}
		rep := run(e, i)
		checkServeReport(b, rep, readClients*readOpsPerClient)
		rs.plain = append(rs.plain, rep)
	}
	if n, err := e.CountVertices(); err != nil || n != int64(len(base)) {
		b.fail("read-only serving changed the vertex count: %d, want %d (err %v)", n, len(base), err)
	}

	if !b.trace {
		b.set("setup_s", "s", median(setup))
		setServeEndToEnd(b, rs, e.SpaceUsage().Total, datasets.RawJSONSize(g))
		return
	}
	b.set("datasets.generate_s", "s", median(gens))
	b.set("datasets.open_s", "s", openWarm(b, []string{serveDataset}, serveScale, cache))
	b.set("engines.bulkload_s", "s", median(loads))
	setServeLayers(b, t, rs)
	setLSM(b, st, float64(len(rs.traced)))
}

// writeRound is one serve-write round's outcome.
type writeRound struct {
	rep        *serve.Report
	load       time.Duration
	recover    time.Duration
	grownBytes int64 // store growth during serving
	storeBytes int64
	space      int64 // SpaceUsage after serving
	recovered  int64 // WAL records replayed on reopen
	syncs, lsn int64
	flushes    int
	compacts   int
	runs       int
	hits, miss int
}

// storeBytes sums the sizes of the store directory's files.
func storeBytes(fs *fsim.Mem) int64 {
	names, err := fs.ReadDir(storeDir)
	if err != nil {
		logf("read store dir: %v", err)
		os.Exit(1)
	}
	var n int64
	for _, name := range names {
		data, err := fs.ReadFile(path.Join(storeDir, name))
		if err != nil {
			logf("read store file: %v", err)
			os.Exit(1)
		}
		n += int64(len(data))
	}
	return n
}

// openStore opens titan-1.0 in durable mode — the store engines.OpenDurable
// opens, with the same defaults — over an in-memory filesystem, so the
// write-ahead log's fsyncs cost no device time and nothing leaves the
// process.
func openStore(fs *fsim.Mem) (*titan.Engine, *lsm.RecoveryStats) {
	e, rst, err := titan.OpenOptions(titan.V10, storeDir, lsm.OpenOptions{FS: fs})
	if err != nil {
		logf("open durable store: %v", err)
		os.Exit(1)
	}
	return e, rst
}

// writeRoundOnce loads a fresh durable store, serves the write-heavy
// mix on one client, closes the store and reopens it. With audit set it
// then checks the reopened store's integrity and contents; rounds are
// byte-identical, so auditing some of them covers all.
func writeRoundOnce(b *bench, g *core.Graph, seed int64, audit bool, d func(core.Engine) core.Engine) writeRound {
	var w writeRound
	runtime.GC() // start every round from the same heap state
	fs := fsim.NewMem(fsim.Faults{})
	start := time.Now()
	e, _ := openStore(fs)
	res, err := e.BulkLoad(g)
	if err != nil {
		logf("bulk load: %v", err)
		os.Exit(1)
	}
	w.load = time.Since(start)
	loaded := storeBytes(fs)
	lsn0, _, syncs0 := e.WALStats()
	f0, c0, _, h0, m0 := e.Stats()

	rep, err := serve.Run(serve.Config{
		Engine: d(e), EngineName: serveEngine, Dataset: serveDataset, Base: res.VertexIDs,
		Clients: 1, Ops: writeOpsPerClient, Mix: writeMix, Seed: seed,
	})
	if err != nil {
		logf("serve: %v", err)
		os.Exit(1)
	}
	w.rep = rep
	checkServeReport(b, rep, writeOpsPerClient)
	lsn1, _, syncs1 := e.WALStats()
	f1, c1, runs, h1, m1 := e.Stats()
	w.lsn, w.syncs = lsn1-lsn0, syncs1-syncs0
	w.flushes, w.compacts, w.runs, w.hits, w.miss = f1-f0, c1-c0, runs, h1-h0, m1-m0
	w.space = e.SpaceUsage().Total
	if err := e.Close(); err != nil {
		b.fail("closing the durable store: %v", err)
	}
	w.storeBytes = storeBytes(fs)
	w.grownBytes = w.storeBytes - loaded

	start = time.Now()
	re, rst := openStore(fs)
	w.recover = time.Since(start)
	w.recovered = rst.Records
	defer re.Close()
	logf("write round: load %.2fs, serve %.2fs, reopen %.2fs", seconds(w.load), float64(rep.DurationNS)/1e9, seconds(w.recover))
	if !audit {
		return w
	}
	if a := re.Audit(); !a.Ok() {
		b.fail("reopened store fails its audit: %v", a.Problems)
	}
	ins := perOp(rep, "insert")
	acked := ins.Count - ins.Errors
	if n, err := re.CountVertices(); err != nil || n != int64(g.NumVertices())+acked {
		b.fail("reopened store has %d vertices, want %d loaded + %d inserted (err %v)", n, g.NumVertices(), acked, err)
	}
	if n, err := re.CountEdges(); err != nil || n != int64(g.NumEdges())+acked {
		b.fail("reopened store has %d edges, want %d loaded + %d inserted (err %v)", n, g.NumEdges(), acked, err)
	}
	return w
}

func runServeWrite(b *bench, seed int64) {
	root := scratchDir("serve-write-")
	defer os.RemoveAll(root)
	var gens []float64
	var g *core.Graph
	var cache string
	for i := 0; i < setupReps; i++ {
		var gen time.Duration
		g, gen, cache = generate(root, i)
		gens = append(gens, seconds(gen))
	}
	plainEngine := func(e core.Engine) core.Engine { return e }
	writeRoundOnce(b, g, seed, true, plainEngine) // warm-up; not measured

	t := newTracer()
	var rs serveRounds
	var plain, traced []writeRound
	for i := 0; i < b.rounds; i++ {
		if b.trace && i%2 == 1 {
			var d *tracedEngine
			w := writeRoundOnce(b, g, seed, i == b.rounds-1, func(e core.Engine) core.Engine {
				d = t.wrap(serveEngine, e)
				return d
			})
			d.collect()
			checkServeTwins(b, plain[len(plain)-1].rep, w.rep)
			traced = append(traced, w)
			rs.traced = append(rs.traced, w.rep)
			continue
		}
		w := writeRoundOnce(b, g, seed, i == b.rounds-1, plainEngine)
		plain = append(plain, w)
		rs.plain = append(rs.plain, w.rep)
	}
	// One client and one seed: every round must leave the same bytes.
	for _, w := range append(plain[1:], traced...) {
		if w.storeBytes != plain[0].storeBytes || w.space != plain[0].space {
			b.fail("identical rounds differ: store %d and %d bytes, space usage %d and %d bytes",
				plain[0].storeBytes, w.storeBytes, plain[0].space, w.space)
		}
	}

	var loads []float64
	for _, w := range plain {
		loads = append(loads, seconds(w.load))
	}
	if !b.trace {
		b.set("setup_s", "s", median(gens)+median(loads))
		setServeEndToEnd(b, rs, plain[0].space, datasets.RawJSONSize(g))
		return
	}
	b.set("datasets.generate_s", "s", median(gens))
	b.set("datasets.open_s", "s", openWarm(b, []string{serveDataset}, serveScale, cache))
	b.set("engines.bulkload_s", "s", median(loads))
	setServeLayers(b, t, rs)
	var st lsmStats
	var syncs, lsn, recs, writes int64
	var recoverS float64
	for _, w := range traced {
		st.flushes += w.flushes
		st.compacts += w.compacts
		st.runs += w.runs
		st.hits += w.hits
		st.misses += w.miss
		syncs += w.syncs
		lsn += w.lsn
		recs += w.recovered
		recoverS += seconds(w.recover)
		ins, upd := perOp(w.rep, "insert"), perOp(w.rep, "update")
		writes += ins.Count + upd.Count
	}
	n := float64(len(traced))
	setLSM(b, st, n)
	b.set("lsm.wal_syncs", "count", float64(syncs)/n)
	b.set("lsm.records_per_sync", "ratio", float64(lsn)/float64(syncs))
	b.set("lsm.store_bytes", "B", float64(traced[0].storeBytes))
	b.set("lsm.store_bytes_per_write", "B/op", float64(traced[0].grownBytes)*n/float64(writes))
	b.set("lsm.recovery_records_per_s", "1/s", float64(recs)/recoverS)
}
