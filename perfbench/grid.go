package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/engines"
	"repro/internal/harness"
	"repro/internal/workload"
)

// The grid workload is the paper's methodology end to end: every
// engine × the Freebase sample, the MiCo graph and the LDBC graph at
// scale 0.001, interactive and batch micro queries, the indexed Q11
// and the complex LDBC queries, on 2 grid workers. Datasets are
// generated into a fresh artifact cache during set-up; each round then
// opens them warm, as a repeated gdb-bench run does. Each round draws
// its own query parameters, so a run averages over more of them.
var gridDatasets = []string{"frb-s", "mico", "ldbc"}

const gridScale = 0.001

func gridConfig(seed int64, cache string) harness.Config {
	return harness.Config{
		Engines:         engines.Names(),
		Datasets:        gridDatasets,
		Scale:           gridScale,
		BatchSize:       3,
		Workers:         2,
		Seed:            seed,
		Isolation:       true, // gdb-bench's default
		Timeout:         10 * time.Second,
		DatasetCacheDir: cache,
	}
}

// gridRound is what one harness run produced.
type gridRound struct {
	wall time.Duration
	res  *harness.Results
}

// cellKey names one measurement of the grid.
type cellKey struct{ engine, dataset, query, mode string }

// measurements lists every query measurement of a run.
func measurements(res *harness.Results) []harness.Measurement {
	var all []harness.Measurement
	all = append(all, res.Micro...)
	all = append(all, res.Indexed...)
	return append(all, res.Complex...)
}

func ok(m harness.Measurement) bool { return !m.Failed && !m.TimedOut }

func runGrid(b *bench, seed int64) {
	root := scratchDir("grid-")
	defer os.RemoveAll(root)

	// Set-up: generate every dataset into a fresh cache, setupReps times.
	var setup []float64
	var cache string
	for i := 0; i < setupReps; i++ {
		cache = fmt.Sprintf("%s/cache%d", root, i)
		start := time.Now()
		for _, ds := range gridDatasets {
			if _, _, err := datasets.Acquire(ds, gridScale, cache); err != nil {
				logf("acquire %s: %v", ds, err)
				os.Exit(1)
			}
		}
		setup = append(setup, seconds(time.Since(start)))
	}

	t := newTracer()
	var plain, traced []gridRound
	for i := 0; i < b.rounds; i++ {
		tracedRound := b.trace && i%2 == 1
		var restore func()
		if tracedRound {
			restore = t.registerAll()
		}
		// A traced round replays its untraced twin's parameters.
		rs := roundSeed(seed, i)
		if tracedRound {
			rs = roundSeed(seed, i-1)
		}
		r, err := harness.NewRunner(gridConfig(rs, cache))
		if err != nil {
			logf("grid: %v", err)
			os.Exit(1)
		}
		start := time.Now()
		res, err := r.Run()
		wall := time.Since(start)
		if restore != nil {
			restore()
		}
		if err != nil {
			logf("grid: %v", err)
			os.Exit(1)
		}
		round := gridRound{wall, res}
		logf("grid round %d (traced=%v): %.2fs", i, tracedRound, seconds(wall))
		checkGridRound(b, res)
		if tracedRound {
			checkTwins(b, plain[len(plain)-1].res, res)
			traced = append(traced, round)
		} else {
			plain = append(plain, round)
		}
	}

	if !b.trace {
		var rates, geos []float64
		for _, r := range plain {
			rates = append(rates, float64(len(measurements(r.res)))/seconds(r.wall))
			geos = append(geos, queryGeomeanUS(r.res))
		}
		b.set("setup_s", "s", median(setup))
		b.set("ops_per_s", "1/s", median(rates))
		b.set("latency_us", "us", median(geos))
		b.set("space_bytes_per_raw_byte", "ratio", spaceRatio(plain[0].res))
		return
	}

	// Per-layer metrics from the traced rounds, per round.
	n := float64(len(traced))
	var tracedWall, plainWall []float64
	for _, r := range plain {
		plainWall = append(plainWall, seconds(r.wall))
	}
	b.set("datasets.generate_s", "s", median(setup))
	b.set("datasets.open_s", "s", openWarm(b, gridDatasets, gridScale, cache))

	var measured, query time.Duration
	var resultRows int64
	byCat := map[string]time.Duration{}
	for _, r := range traced {
		tracedWall = append(tracedWall, seconds(r.wall))
		for _, l := range r.res.Loads {
			measured += l.Elapsed
		}
		for _, m := range measurements(r.res) {
			measured += m.Elapsed
			query += m.Elapsed
			byCat[queryCategory(m)] += m.Elapsed
			if ok(m) {
				resultRows += m.Count
			}
		}
	}
	for _, name := range engines.Names() {
		if t.byEngine[name] == nil {
			b.fail("engine %s was never traced", name)
		}
	}
	tot := t.total()
	b.set("engines.bulkload_s", "s", seconds(tot.busy(mBulkLoad))/n)
	setEngineMetrics(b, t, n)
	inQueries := tot.busy() - tot.busy(mBulkLoad, mSpaceUsage, mBuildVertexPropIndex)
	b.set("gremlin.self_share", "ratio", seconds(query-inQueries)/seconds(query))
	b.set("gremlin.rows_per_result", "ratio", float64(tot.pulled)/math.Max(1, float64(resultRows)))
	for _, cat := range queryCategories {
		b.set("workload.query_share."+cat, "ratio", seconds(byCat[cat])/seconds(query))
	}
	// Worker time the harness spent outside any load or query it timed.
	capacity := float64(gridConfig(seed, cache).Workers) * median(tracedWall)
	b.set("harness.unattributed_share", "ratio", (capacity-seconds(measured)/n)/capacity)
	setLSM(b, t.lsm, n)
	b.set("trace.overhead", "ratio", median(tracedWall)/median(plainWall))
}

// setEngineMetrics reports, per round over n rounds, the engines' calls
// and busy time outside BulkLoad, and how that time splits over the
// engines and over the methods.
func setEngineMetrics(b *bench, t *tracer, n float64) {
	tot := t.total()
	busy := seconds(tot.busy() - tot.busy(mBulkLoad))
	var calls int64
	for m, c := range tot.calls {
		if method(m) != mBulkLoad {
			calls += c
		}
	}
	b.set("engines.busy_s", "s", busy/n)
	b.set("engines.calls", "count", float64(calls)/n)
	for name, c := range t.byEngine {
		b.set("engines.busy_share."+name, "ratio", seconds(c.busy()-c.busy(mBulkLoad))/busy)
	}
	for _, m := range reportedMethods {
		b.set("engines.calls."+methodNames[m], "count", float64(tot.calls[m])/n)
		b.set("engines.busy_share."+methodNames[m], "ratio", seconds(tot.busy(m))/busy)
	}
}

// openWarm times opening the given datasets from a warm artifact cache.
func openWarm(b *bench, names []string, scale float64, cache string) float64 {
	start := time.Now()
	for _, ds := range names {
		if _, st, err := datasets.Acquire(ds, scale, cache); err != nil || !st.Hit {
			b.fail("warm acquire of %s missed the cache (err %v)", ds, err)
		}
	}
	return seconds(time.Since(start))
}

// queryCategory is the Table 2 category of a micro query, or "indexed"
// or "complex" for the two other grid parts.
func queryCategory(m harness.Measurement) string {
	if strings.HasSuffix(m.Query, "(idx)") {
		return "indexed"
	}
	base, _, _ := strings.Cut(m.Query, "(")
	if q := workload.ByName(base); q != nil {
		return string(q.Cat)
	}
	return "complex"
}

// queryGeomeanUS is the geometric mean of every successful query
// measurement's latency in microseconds — the log-scale average the
// paper's figures plot.
func queryGeomeanUS(res *harness.Results) float64 {
	var sum float64
	var n int
	for _, m := range measurements(res) {
		if !ok(m) {
			continue
		}
		us := math.Max(float64(m.Elapsed)/1e3, 1e-3)
		sum += math.Log(us)
		n++
	}
	return math.Exp(sum / float64(n))
}

// spaceRatio is Figure 1's space occupancy over raw JSON, summed over
// every successful load.
func spaceRatio(res *harness.Results) float64 {
	var space, raw int64
	for _, l := range res.Loads {
		if l.Failed {
			continue
		}
		space += l.Space.Total
		raw += l.RawJSON
	}
	return float64(space) / float64(raw)
}

// checkGridRound counts attempts and failures, and checks that every
// engine returned the same count for each (dataset, query, mode).
func checkGridRound(b *bench, res *harness.Results) {
	for _, l := range res.Loads {
		b.res.Attempted++
		if l.Failed {
			b.res.Failed++
			logf("failed load: %s on %s: %s", l.Engine, l.Dataset, l.Error)
		}
	}
	type group struct{ dataset, query, mode string }
	want := map[group]harness.Measurement{}
	var failed []string
	for _, m := range measurements(res) {
		b.res.Attempted++
		if !ok(m) {
			b.res.Failed++
			failed = append(failed, fmt.Sprintf("%s/%s/%s/%s: %s", m.Query, m.Mode, m.Dataset, m.Engine, m.Error))
			continue
		}
		g := group{m.Dataset, m.Query, string(m.Mode)}
		if w, seen := want[g]; !seen {
			want[g] = m
		} else if w.Count != m.Count {
			b.fail("%s %s on %s: %s counts %d, %s counts %d", m.Query, m.Mode, m.Dataset, w.Engine, w.Count, m.Engine, m.Count)
		}
	}
	sort.Strings(failed)
	for _, f := range failed {
		logf("failed: %s", f)
	}
}

// checkTwins checks that a traced grid round measured the same cells
// as its untraced twin, with the same outcomes and counts.
func checkTwins(b *bench, plain, traced *harness.Results) {
	index := func(res *harness.Results) map[cellKey]harness.Measurement {
		out := map[cellKey]harness.Measurement{}
		for _, m := range measurements(res) {
			out[cellKey{m.Engine, m.Dataset, m.Query, string(m.Mode)}] = m
		}
		return out
	}
	want, got := index(plain), index(traced)
	if len(got) != len(want) {
		b.fail("untraced round measured %d cells, traced %d", len(want), len(got))
	}
	for k, w := range want {
		g, seen := got[k]
		switch {
		case !seen:
			b.fail("cell %v missing from the traced round", k)
		case ok(g) != ok(w) || (ok(w) && g.Count != w.Count):
			b.fail("cell %v: count %d (ok %v) untraced, %d (ok %v) traced", k, w.Count, ok(w), g.Count, ok(g))
		}
	}
}
