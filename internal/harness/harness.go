// Package harness materializes the paper's evaluation methodology
// (Section 5): it loads each dataset into each engine through the
// engine's bulk path, draws query parameters once against the dataset
// (so every engine is asked about the same logical objects), executes
// every micro query in interactive and batch mode under a timeout,
// runs the complex workload on ldbc, and renders each of the paper's
// tables and figures from the collected measurements.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engines"
	"repro/internal/gremlin"
	"repro/internal/workload"
)

// Config parameterizes an evaluation run.
type Config struct {
	// Engines to evaluate; defaults to all registered configurations.
	Engines []string
	// Datasets to use; defaults to the Freebase ladder plus ldbc, the
	// datasets Section 6 focuses on.
	Datasets []string
	// Scale is the dataset scale factor (1.0 = paper sizes).
	Scale float64
	// Timeout per query execution — the paper's 2-hour limit, scaled to
	// the run.
	Timeout time.Duration
	// BatchSize is the number of executions in batch mode (paper: 10).
	BatchSize int
	// Seed fixes all random choices.
	Seed int64
	// Isolation runs every mutating query on an unperturbed instance:
	// a clone of a pristine copy taken right after the bulk load,
	// before any read query (the last mutating query gets the pristine
	// copy itself). Engines that are not a core.Cloner, or refuse to
	// clone (a durable titan under LSMDir), reload a fresh engine
	// instead. Either way the query sees a fresh load's state, so
	// results are identical. Read queries always share the loaded
	// instance, which they do not modify.
	Isolation bool
	// Workers bounds the number of grid cells — (engine, dataset) micro
	// cells plus indexed and complex cells — evaluated concurrently.
	// Zero or negative means runtime.NumCPU(). Results are assembled in
	// the same order regardless of the worker count.
	Workers int
	// CellWorkers bounds the number of batch iterations executed
	// concurrently inside one cell. Only non-mutating queries fan out
	// (engines are single-writer; their read surfaces are required to be
	// race-free, see core.Engine), engines with result-affecting read
	// state veto fan-out via core.ConcurrentReader, and the iterations
	// fold in index order — so results are identical for any value.
	// Zero, one or negative means sequential.
	CellWorkers int
	// Remote lists gdb-worker addresses (host:port) whose slots join
	// the local workers in executing grid cells. The handshake ships
	// this run's fingerprint and requires both builds to have identical
	// engine/dataset catalogs; a worker that dies mid-cell has its cell
	// reassigned to the local queue. Like Workers, Remote is absent
	// from the checkpoint fingerprint: where a cell runs never changes
	// what it measures.
	Remote []string
	// CheckpointPath, when non-empty, streams every completed grid cell
	// to this JSONL file as workers finish: header line with the config
	// Fingerprint, then one record per cell, fsynced. A crash loses at
	// most the cell in flight.
	CheckpointPath string
	// Resume replays a compatible checkpoint from CheckpointPath before
	// executing: already-completed cells are restored and only the
	// missing ones run. The final Results are byte-identical to an
	// uninterrupted run. A checkpoint written under a different
	// Fingerprint is rejected; a missing file starts a fresh run.
	Resume bool
	// DatasetCacheDir, when non-empty, reuses binary dataset snapshots
	// from this directory instead of regenerating each graph, and
	// populates it on misses (see internal/datasets, Acquire). Cached
	// graphs are byte-identical to generated ones, so the cache is —
	// like the worker counts — deliberately absent from the checkpoint
	// fingerprint: where a graph came from never changes what a run
	// measures.
	DatasetCacheDir string
	// Mmap memory-maps warm snapshot artifacts instead of reading and
	// decoding them onto the heap: the CSR's columnar arrays alias the
	// mapped file (see internal/mmapfile), so a warm open touches only
	// the pages it needs. Graphs served either way are byte-identical —
	// like DatasetCacheDir, Mmap is deliberately absent from the
	// checkpoint fingerprint. No-op without a cache hit, and on
	// platforms without mmap it degrades to the heap path.
	Mmap bool
	// LSMDir, when non-empty, opens every durable-capable engine (the
	// titan configurations) over a write-ahead-logged store rooted in a
	// unique subdirectory of this path, one per cell. Engines without a
	// durable substrate still run volatile. Like DatasetCacheDir this is
	// absent from the checkpoint fingerprint: durability changes where
	// bytes live, not what a run measures — results stay comparable
	// with volatile runs modulo the WAL's write-path cost, which is the
	// point of measuring with it.
	LSMDir string
	// ServeArtifacts streams dataset snapshot artifacts to remote
	// workers that request them over the wire, so a cold worker fleet
	// seeds itself from this scheduler instead of regenerating every
	// dataset (gdb-bench enables it by default; see -serve-artifacts).
	// Serving is read-only and — like DatasetCacheDir — never changes
	// results: a shipped artifact is re-verified on arrival and decodes
	// to the exact graph the worker would have generated.
	ServeArtifacts bool
	// CrashAfterCells, when positive, exits the process (code 1) after
	// that many cells have been streamed to the checkpoint — fault
	// injection for exercising checkpoint/resume, used by the CI smoke
	// job. Replayed cells do not count.
	CrashAfterCells int
	// FrozenClock records every duration as zero, making exports fully
	// deterministic — the knob behind byte-identical CI comparisons.
	FrozenClock bool
	// NoOptimize disables the gremlin traversal optimizer (filter
	// reordering and implicit index fusion) for every query in the run —
	// the -optimize=false escape hatch for A/B comparisons. Optimized
	// and unoptimized plans are guaranteed element-identical, so the
	// flag — like Workers — never changes results and is absent from
	// the checkpoint fingerprint.
	NoOptimize bool
	// ErrorsFatal aborts the run on the first engine construction or
	// load error instead of recording the cell as DNF and continuing.
	ErrorsFatal bool
	// Progress, when non-nil, receives one line per completed step.
	Progress io.Writer
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		Engines:   engines.Names(),
		Datasets:  []string{"frb-s", "frb-o", "frb-m", "frb-l"},
		Scale:     0.002,
		Timeout:   2 * time.Second,
		BatchSize: 10,
		Seed:      1,
		Isolation: true,
		Workers:   runtime.NumCPU(),
	}
}

// Mode distinguishes the two execution modes of Figure 1(c).
type Mode string

// Execution modes.
const (
	ModeInteractive Mode = "interactive"
	ModeBatch       Mode = "batch"
)

// Measurement is one (engine, dataset, query, mode) cell.
type Measurement struct {
	Engine   string
	Dataset  string
	Query    string // "Q2".."Q35", complex names, or "Q32(d=3)" style
	Mode     Mode
	Elapsed  time.Duration
	TimedOut bool
	Failed   bool   // non-timeout error (e.g. out of memory)
	Error    string // error text when Failed or TimedOut
	Count    int64  // result count (validation across engines)
}

// LoadMeasurement is one (engine, dataset) load (Q1) with its space
// occupancy (Figures 1 and 3(a)). A load that did not finish — engine
// construction or bulk-load error — is recorded with Failed set, the
// paper's DNF, and leaves every dependent cell DNF too.
type LoadMeasurement struct {
	Engine  string
	Dataset string
	Elapsed time.Duration
	Space   core.SpaceReport
	RawJSON int64 // size of the GraphSON representation ("Raw Data")
	Failed  bool
	Error   string
}

// Results accumulates a full evaluation.
type Results struct {
	Config  Config
	Loads   []LoadMeasurement
	Micro   []Measurement
	Indexed []Measurement // Q11 with an attribute index (Figure 4(c))
	Complex []Measurement // Figure 2 workload on ldbc
	Stats   map[string]datasets.Table3Row
}

// Runner executes the evaluation.
type Runner struct {
	cfg Config

	mu     sync.Mutex // guards graphs, fetch and Progress writes
	graphs map[string]*datasetCache
	// fetch, when non-nil, is consulted by dataset acquisition after a
	// local cache miss and before falling back to generation — the
	// worker side of artifact shipping (see SetDatasetFetcher).
	fetch datasets.FetchFunc

	// now and since default to the real clock; Config.FrozenClock and
	// tests substitute a frozen clock so two runs produce byte-identical
	// exports.
	now   func() time.Time
	since func(time.Time) time.Duration

	// exit is called to simulate a crash for Config.CrashAfterCells;
	// tests substitute it, production keeps os.Exit.
	exit func(code int)

	// lsmSeq numbers durable store directories under Config.LSMDir so
	// concurrent cells never share a WAL.
	lsmSeq atomic.Int64
}

// datasetCache generates a dataset graph (and its GraphSON raw size,
// the "Raw Data" bar of Figure 1) exactly once; after Do the fields are
// read-only and safe to share across worker goroutines.
type datasetCache struct {
	once    sync.Once
	g       *core.Graph
	rawJSON int64
}

// NewRunner validates the config and prepares a runner.
func NewRunner(cfg Config) (*Runner, error) {
	if len(cfg.Engines) == 0 {
		cfg.Engines = engines.Names()
	}
	if len(cfg.Datasets) == 0 {
		cfg.Datasets = DefaultConfig().Datasets
	}
	if cfg.Scale <= 0 {
		cfg.Scale = DefaultConfig().Scale
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultConfig().Timeout
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 10
	}
	for _, e := range cfg.Engines {
		if engines.Constructor(e) == nil {
			return nil, fmt.Errorf("harness: unknown engine %q", e)
		}
	}
	for _, d := range cfg.Datasets {
		if datasets.ByName(d) == nil {
			return nil, fmt.Errorf("harness: unknown dataset %q", d)
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.CellWorkers <= 0 {
		cfg.CellWorkers = 1
	}
	if cfg.Resume && cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("harness: Resume requires CheckpointPath")
	}
	if cfg.CrashAfterCells > 0 && cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("harness: CrashAfterCells requires CheckpointPath")
	}
	r := &Runner{
		cfg:    cfg,
		graphs: make(map[string]*datasetCache),
		now:    time.Now,   //lint:gdb-allow wallclock this IS the injectable clock's production default
		since:  time.Since, //lint:gdb-allow wallclock this IS the injectable clock's production default
		exit:   os.Exit,
	}
	if cfg.FrozenClock {
		r.now = func() time.Time { return time.Time{} }
		r.since = func(time.Time) time.Duration { return 0 }
	}
	return r, nil
}

// Config returns the effective configuration.
func (r *Runner) Config() Config { return r.cfg }

func (r *Runner) progressf(format string, args ...any) {
	if r.cfg.Progress != nil {
		r.mu.Lock()
		fmt.Fprintf(r.cfg.Progress, format+"\n", args...)
		r.mu.Unlock()
	}
}

// SetDatasetFetcher installs a remote artifact source for dataset
// acquisition: on a local cache miss the fetcher is tried before
// falling back to generation (the worker half of artifact shipping —
// remote workers point it at their scheduler's artifact stream). A
// fetched graph is byte-identical to a generated one, so the fetcher —
// like the cache dir — never changes what a run measures. Safe to call
// while cells execute; datasets already acquired keep their graphs.
func (r *Runner) SetDatasetFetcher(f datasets.FetchFunc) {
	r.mu.Lock()
	r.fetch = f
	r.mu.Unlock()
}

func (r *Runner) datasetFetcher() datasets.FetchFunc {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fetch
}

// dataset returns the cache entry for a dataset, acquiring the graph
// and its GraphSON raw size on first use. Acquisition tries, in order:
// the artifact cache when Config.DatasetCacheDir is set (a warm hit
// decodes the content-addressed snapshot), the remote fetcher when one
// was installed via SetDatasetFetcher (a cold worker pulls the
// artifact from its scheduler), and generation; the graph is identical
// whichever layer served it. Concurrent callers block on the entry's
// Once, so each graph is acquired exactly once per run and shared
// read-only afterwards.
func (r *Runner) dataset(name string) *datasetCache {
	r.mu.Lock()
	c, ok := r.graphs[name]
	if !ok {
		c = &datasetCache{}
		r.graphs[name] = c
	}
	r.mu.Unlock()
	c.once.Do(func() {
		g, st, err := datasets.AcquireWith(name, r.cfg.Scale, datasets.AcquireOptions{
			CacheDir: r.cfg.DatasetCacheDir,
			Fetch:    r.datasetFetcher(),
			Mmap:     r.cfg.Mmap,
		})
		if err != nil {
			// NewRunner validated every dataset name up front.
			panic(err)
		}
		if st.Err != nil {
			r.progressf("dataset %s: %v", name, st.Err)
		}
		switch {
		case st.Hit:
			r.progressf("dataset %s: warm cache hit (%d vertices, %d edges)", name, g.NumVertices(), g.NumEdges())
		case st.Fetched:
			r.progressf("fetched %s from scheduler (%d vertices, %d edges)", name, g.NumVertices(), g.NumEdges())
		default:
			suffix := ""
			if st.Stored {
				suffix = " (snapshot cached)"
			}
			r.progressf("dataset %s: generated %d vertices, %d edges%s", name, g.NumVertices(), g.NumEdges(), suffix)
		}
		c.g = g
		// A warm artifact carries the GraphSON size; otherwise stream-
		// count it here (the cold cached path computed it while storing).
		if st.RawJSON >= 0 {
			c.rawJSON = st.RawJSON
		} else {
			c.rawJSON = rawJSONSize(g)
		}
	})
	return c
}

// graph returns the (cached) dataset graph.
func (r *Runner) graph(name string) *core.Graph { return r.dataset(name).g }

// loadInto bulk-loads a dataset into a fresh engine, measuring time.
// With Config.LSMDir set, durable-capable engines open over a WAL in
// a cell-unique subdirectory instead of purely in memory.
func (r *Runner) loadInto(engine, dataset string) (core.Engine, *core.LoadResult, time.Duration, error) {
	var e core.Engine
	var err error
	if r.cfg.LSMDir != "" && engines.SupportsDurable(engine) {
		dir := filepath.Join(r.cfg.LSMDir,
			fmt.Sprintf("%s-%s-%d", engine, dataset, r.lsmSeq.Add(1)))
		e, _, err = engines.OpenDurable(engine, dir)
	} else {
		e, err = engines.New(engine)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	g := r.graph(dataset)
	start := r.now()
	res, err := e.BulkLoad(g)
	elapsed := r.since(start)
	if err != nil {
		e.Close()
		return nil, nil, 0, fmt.Errorf("%s on %s: load: %w", engine, dataset, err)
	}
	return e, res, elapsed, nil
}

// queryContext derives the context every query execution runs under:
// the given time budget, plus the optimizer escape hatch when the run
// was configured with NoOptimize.
func (r *Runner) queryContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	if r.cfg.NoOptimize {
		ctx = gremlin.WithoutOptimizer(ctx)
	}
	return ctx, cancel
}

// timeQuery runs one query execution under the configured timeout.
func (r *Runner) timeQuery(e core.Engine, q *workload.Query, p workload.Params) Measurement {
	ctx, cancel := r.queryContext(r.cfg.Timeout)
	defer cancel()
	start := r.now()
	res, err := q.Run(ctx, e, p)
	m := Measurement{Query: q.Name, Elapsed: r.since(start), Count: res.Count}
	classify(&m, err)
	return m
}

func classify(m *Measurement, err error) {
	switch {
	case err == nil:
	case errors.Is(err, core.ErrTimeout) || errors.Is(err, context.DeadlineExceeded):
		m.TimedOut = true
		m.Error = err.Error()
	default:
		m.Failed = true
		m.Error = err.Error()
	}
}
