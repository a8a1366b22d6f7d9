package harness

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/remote"
	"repro/internal/workload"
)

// jobKind distinguishes the independent cell types of the evaluation
// grid.
type jobKind int

const (
	// The micro workload is split into two independently resumable
	// cells per (engine, dataset): the interactive half also records
	// the load/space measurement (it loads first in plan order), the
	// batch half loads its own instance. Halving the cell granularity
	// halves the work a crash can lose — the paper's micro grid
	// dominates run time, and a cell is the checkpoint's atom.
	jobMicroI  jobKind = iota // interactive micro half (records the load)
	jobMicroB                 // batch micro half
	jobIndexed                // Q11/Q5 with an attribute index (Figure 4(c))
	jobComplex                // complex workload on ldbc (Figure 2)
)

func (k jobKind) String() string {
	switch k {
	case jobMicroI:
		return "micro-i"
	case jobMicroB:
		return "micro-b"
	case jobIndexed:
		return "indexed"
	case jobComplex:
		return "complex"
	}
	return "unknown"
}

// gridJob is one independently executable cell of the evaluation grid.
type gridJob struct {
	kind    jobKind
	engine  string
	dataset string
}

// cellResult collects everything one grid job measured. Each worker
// writes only into its own pre-sized slot, so the assembled Results
// retain the exact sequential order regardless of completion order.
type cellResult struct {
	loads   []LoadMeasurement
	micro   []Measurement
	indexed []Measurement
	complex []Measurement
	err     error // set only under Config.ErrorsFatal
}

// Run executes the full evaluation: Table 3 statistics, loading and
// space (Figures 1(a,b), 3(a)), the micro workload in interactive and
// batch mode on every engine × dataset (Figures 3–7), the indexed
// variant of Q11 (Figure 4(c)), and — when ldbc is among the datasets —
// the complex workload (Figure 2).
//
// The grid cells are independent jobs executed on Config.Workers
// goroutines; results are assembled in plan order, so any worker count
// produces output identical to a sequential run. An engine that fails
// to construct or load is recorded as DNF (failed LoadMeasurement plus
// failed cells) and the evaluation continues, unless Config.ErrorsFatal
// requests the first such error to abort the run.
//
// With Config.CheckpointPath set, every completed cell is streamed to
// the checkpoint file as its worker finishes; with Config.Resume, a
// compatible checkpoint is replayed first and only the cells it is
// missing are executed — the assembled Results are byte-identical to an
// uninterrupted run either way.
//
// With Config.Remote set, the listed gdb-worker processes contribute
// additional execution slots: cells are shipped over the wire, their
// results land in the same plan-indexed slots (and flow through the
// same checkpoint stream) as local ones, and a worker that dies
// mid-cell has its cell reassigned to the local queue. Where a cell
// ran never changes what it measured.
func (r *Runner) Run() (*Results, error) {
	jobs := r.planJobs()
	cells := make([]cellResult, len(jobs))
	fp := r.fingerprint(len(jobs))

	// Everything that can fail fast does so before dataset generation —
	// the longest sequential stretch of a run: a typo'd worker address,
	// a mismatched worker build, or an incompatible checkpoint must
	// surface in milliseconds, not after the graphs are built.
	var clients []*remote.Client
	if len(r.cfg.Remote) > 0 {
		// With ServeArtifacts the runner doubles as the workers'
		// artifact source: cold workers pull dataset snapshots from
		// this process instead of regenerating them.
		var artifacts remote.ArtifactProvider
		if r.cfg.ServeArtifacts {
			artifacts = r
		}
		var err error
		clients, err = dialRemotes(r.cfg.Remote, fp, artifacts)
		if err != nil {
			return nil, err
		}
		defer func() {
			for _, cl := range clients {
				cl.Close()
			}
		}()
		slots := 0
		for _, cl := range clients {
			slots += cl.Capacity()
		}
		r.progressf("remote: %d workers providing %d extra slots", len(clients), slots)
	}

	var recovered map[int]cellResult
	var cp *checkpointWriter
	if r.cfg.CheckpointPath != "" {
		if r.cfg.Resume {
			var err error
			recovered, err = loadCheckpoint(r.cfg.CheckpointPath, fp)
			if err != nil {
				return nil, err
			}
			if len(recovered) > 0 {
				r.progressf("resume: %d/%d cells restored from %s", len(recovered), len(jobs), r.cfg.CheckpointPath)
			}
		}
		var err error
		cp, err = newCheckpointWriter(r.cfg.CheckpointPath, fp, recovered)
		if err != nil {
			return nil, err
		}
		defer cp.close()
	}

	out := &Results{Config: r.cfg, Stats: map[string]datasets.Table3Row{}}
	for _, ds := range r.cfg.Datasets {
		r.progressf("stats %s", ds)
		out.Stats[ds] = datasets.Stats(r.graph(ds))
	}

	// Recovered cells are restored in place; only the rest is scheduled.
	pending := make([]int, 0, len(jobs))
	for i := range jobs {
		if c, ok := recovered[i]; ok {
			cells[i] = c
		} else {
			pending = append(pending, i)
		}
	}

	var aborted atomic.Bool
	sched := newCellScheduler(pending)
	// finish is the shared completion path: it streams the cell to the
	// checkpoint (wherever it was executed) and stops the grid on a
	// fatal cell or a checkpoint write failure — durability was
	// requested and is gone, so failing fast beats burning hours on
	// cells that cannot be checkpointed (everything already streamed
	// stays resumable).
	finish := func(i int) {
		if cells[i].err != nil {
			aborted.Store(true)
			sched.stop()
			return
		}
		if cp != nil {
			streamed, err := cp.write(i, cells[i])
			if err != nil {
				aborted.Store(true)
				sched.stop()
				return
			}
			if n := r.cfg.CrashAfterCells; n > 0 && streamed >= n {
				r.progressf("fault injection: crashing after %d checkpointed cells", streamed)
				r.exit(1)
			}
		}
	}

	localWorker := func() {
		for {
			i, ok := sched.nextLocal()
			if !ok {
				return
			}
			// Under an abort the grid drains: in-flight cells
			// finish, queued ones are skipped.
			if !aborted.Load() {
				cells[i] = r.runCell(jobs[i])
				finish(i)
			}
			sched.done()
		}
	}
	var wg sync.WaitGroup
	localWorkers := r.cfg.Workers
	if localWorkers > len(pending) {
		localWorkers = len(pending)
	}
	for w := 1; w < localWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			localWorker()
		}()
	}
	for ci, cl := range clients {
		for k := 0; k < cl.Capacity(); k++ {
			wg.Add(1)
			sched.registerRemoteSlot(ci)
			go func(ci int, cl *remote.Client) {
				defer wg.Done()
				defer sched.retireRemoteSlot(ci)
				r.remoteSlot(ci, cl, sched, jobs, cells, &aborted, finish)
			}(ci, cl)
		}
	}
	// One local worker always runs on the calling goroutine — with
	// -workers 1 the grid executes exactly where Run was called (the
	// contract runPool had, which fault-injection tests rely on), and a
	// requeued remote cell always has a local executor to land on.
	if localWorkers > 0 {
		localWorker()
	}
	wg.Wait()
	if cp != nil {
		if err := cp.firstErr(); err != nil {
			return nil, err
		}
	}

	for i := range cells {
		if cells[i].err != nil {
			return nil, cells[i].err
		}
	}
	for i := range cells {
		out.Loads = append(out.Loads, cells[i].loads...)
		out.Micro = append(out.Micro, cells[i].micro...)
		out.Indexed = append(out.Indexed, cells[i].indexed...)
		out.Complex = append(out.Complex, cells[i].complex...)
	}
	return out, nil
}

// planJobs lays out the grid in the canonical sequential order; the
// job list order is also the assembly order of the result slices.
func (r *Runner) planJobs() []gridJob {
	return planGrid(r.cfg.Engines, r.cfg.Datasets)
}

// planGrid is the deterministic grid plan shared by the runner, remote
// workers (which re-derive it from the handshake fingerprint) and the
// -status command (which re-derives it from a checkpoint header): the
// same engine and dataset lists always produce the same indexed plan.
func planGrid(engineNames, datasetNames []string) []gridJob {
	var jobs []gridJob
	for _, ds := range datasetNames {
		for _, en := range engineNames {
			jobs = append(jobs, gridJob{jobMicroI, en, ds})
			jobs = append(jobs, gridJob{jobMicroB, en, ds})
			jobs = append(jobs, gridJob{jobIndexed, en, ds})
		}
		if ds == "ldbc" {
			for _, en := range engineNames {
				jobs = append(jobs, gridJob{jobComplex, en, ds})
			}
		}
	}
	return jobs
}

// runCell executes one grid job. Load errors inside the job are
// recorded as DNF cells; they become fatal only under ErrorsFatal.
func (r *Runner) runCell(j gridJob) cellResult {
	var c cellResult
	var err error
	switch j.kind {
	case jobMicroI:
		r.progressf("micro-i %s on %s", j.engine, j.dataset)
		err = r.runMicro(&c, j.engine, j.dataset, ModeInteractive)
	case jobMicroB:
		r.progressf("micro-b %s on %s", j.engine, j.dataset)
		err = r.runMicro(&c, j.engine, j.dataset, ModeBatch)
	case jobIndexed:
		r.progressf("indexed %s on %s", j.engine, j.dataset)
		err = r.runIndexed(&c, j.engine, j.dataset)
	case jobComplex:
		r.progressf("complex %s on ldbc", j.engine)
		err = r.runComplex(&c, j.engine)
	}
	if err != nil && r.cfg.ErrorsFatal {
		c.err = err
	}
	return c
}

// rawJSONSize measures the GraphSON size of a dataset (the "Raw Data"
// bar of Figure 1) by streaming the document through a counting
// writer: the size is exactly what materializing the document would
// report, without holding an O(dataset) buffer per run. Cached dataset
// artifacts carry the same number, computed by the same code, so warm
// runs skip even this pass.
func rawJSONSize(g *core.Graph) int64 {
	return datasets.RawJSONSize(g)
}

// queryOrder returns the micro queries with reads and traversals first
// and destructive operations last, so shared-instance runs are not
// perturbed; within a group, Table 2 order.
func queryOrder() []workload.Query {
	all := workload.Queries()
	var reads, writes []workload.Query
	for _, q := range all {
		if q.Mutates {
			writes = append(writes, q)
		} else {
			reads = append(reads, q)
		}
	}
	return append(reads, writes...)
}

// queryCells returns the measurement names q contributes per mode: the
// query name, or one per swept depth for Q32 (Figure 6).
func queryCells(q *workload.Query) []string {
	if q.Num != 32 {
		return []string{q.Name}
	}
	names := make([]string, 0, 4)
	for depth := 2; depth <= 5; depth++ {
		names = append(names, q.Name+depthSuffix(depth))
	}
	return names
}

// dnf builds the cell the paper reports as DNF: the engine never got a
// loaded instance to run this query on.
func dnf(query string, err error) Measurement {
	return Measurement{Query: query, Failed: true, Error: "DNF: " + err.Error()}
}

// runMicro executes one half of the micro workload — interactive or
// batch — as its own grid cell. The halves share nothing at runtime
// (each loads its own instance; ParamGen is pure per (query, iter), so
// both derive identical parameters from the dataset and seed), which is
// what lets a resumed run restore one half and re-execute only the
// other. The interactive half doubles as the load/space measurement;
// the batch half's load is purely operational.
func (r *Runner) runMicro(c *cellResult, engine, dataset string, mode Mode) error {
	ds := r.dataset(dataset)

	record := func(m Measurement) {
		m.Engine, m.Dataset, m.Mode = engine, dataset, mode
		c.micro = append(c.micro, m)
	}

	e, res, loadTime, err := r.loadInto(engine, dataset)
	if err != nil {
		if mode == ModeInteractive {
			c.loads = append(c.loads, LoadMeasurement{
				Engine: engine, Dataset: dataset, RawJSON: ds.rawJSON,
				Failed: true, Error: err.Error(),
			})
		}
		for _, q := range queryOrder() {
			q := q
			for _, name := range queryCells(&q) {
				record(dnf(name, err))
			}
		}
		return err
	}
	if mode == ModeInteractive {
		c.loads = append(c.loads, LoadMeasurement{
			Engine: engine, Dataset: dataset,
			Elapsed: loadTime, Space: e.SpaceUsage(), RawJSON: ds.rawJSON,
		})
	}
	pg := NewParamGen(ds.g, r.cfg.Seed)
	order := queryOrder()

	// Isolation: every mutating query must see an unperturbed instance.
	// The pristine copy is taken now, before any read runs, so even
	// read-side state (row caches, retention budgets, planner and REST
	// counters) is at its fresh-load values; each mutating query gets a
	// clone of it, and the last one the pristine instance itself.
	// Engines that cannot clone reload instead.
	var pristine core.Engine
	mutating := 0
	if r.cfg.Isolation {
		for _, q := range order {
			if q.Mutates {
				mutating++
			}
		}
		if cl, ok := e.(core.Cloner); ok {
			if p, err := cl.Clone(); err == nil {
				pristine = p
			}
		}
	}

	var firstErr error
	for _, q := range order {
		q := q
		exec := e
		execRes := res
		if q.Mutates && r.cfg.Isolation {
			if e != nil {
				// queryOrder runs every read first, so the shared
				// instance is done: release it before the writes'
				// instances exist, keeping at most two alive.
				e.Close()
				e = nil
			}
			mutating--
			fresh, freshRes, err := r.isolated(&pristine, mutating == 0, engine, dataset, res)
			if err != nil {
				// Only this query's cells are DNF.
				for _, name := range queryCells(&q) {
					record(dnf(name, err))
				}
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			exec, execRes = fresh, freshRes
		}

		// Q32 is swept over depths 2..5 (Figure 6); everything else
		// runs once per mode.
		if q.Num == 32 {
			for depth := 2; depth <= 5; depth++ {
				pg.SetDepth(depth)
				if mode == ModeInteractive {
					m := r.timeQuery(exec, &q, pg.For(&q, 0, execRes))
					m.Query = q.Name + depthSuffix(depth)
					record(m)
				} else {
					record(r.batch(exec, &q, pg, execRes))
				}
			}
			pg.SetDepth(2)
		} else if mode == ModeInteractive {
			record(r.timeQuery(exec, &q, pg.For(&q, 0, execRes)))
		} else {
			record(r.batch(exec, &q, pg, execRes))
		}

		if exec != e {
			exec.Close()
		}
	}
	if pristine != nil {
		pristine.Close()
	}
	if e != nil {
		e.Close()
	}
	return firstErr
}

// isolated returns an unperturbed instance for one mutating query: a
// clone of *pristine, or — for the last mutating query — the pristine
// instance itself, whose ownership passes to the caller. A clone of a
// just-loaded instance answers every query exactly as a fresh load
// would (core.Cloner), with the same element IDs, so the base load's
// LoadResult still applies. Without a pristine instance, or if cloning
// fails, it falls back to a fresh load.
func (r *Runner) isolated(pristine *core.Engine, last bool, engine, dataset string, res *core.LoadResult) (core.Engine, *core.LoadResult, error) {
	if p := *pristine; p != nil {
		if last {
			*pristine = nil
			return p, res, nil
		}
		if c, err := p.(core.Cloner).Clone(); err == nil {
			return c, res, nil
		}
	}
	e, freshRes, _, err := r.loadInto(engine, dataset)
	return e, freshRes, err
}

func depthSuffix(d int) string {
	return "(d=" + strconv.Itoa(d) + ")"
}

// batch executes BatchSize iterations and reports the total time; one
// timeout or failure marks the whole batch, as in Figure 1(c). Count is
// that of the last successful iteration — a failed iteration must not
// overwrite it with its zero value.
//
// Non-mutating batches fan out across Config.CellWorkers goroutines:
// engines guarantee race-free concurrent reads (see core.Engine), and
// the iterations fold in index order — first error wins, Count taken
// from the last success before it — so the measurement is identical to
// a sequential batch. Mutating batches always run sequentially: the
// engines are single-writer, and concurrent destructive iterations
// would make the instance state depend on scheduling.
func (r *Runner) batch(e core.Engine, q *workload.Query, pg *ParamGen, res *core.LoadResult) Measurement {
	total := Measurement{Query: q.Name}
	if q.Num == 32 {
		total.Query = q.Name + depthSuffix(pg.depth)
	}
	start := r.now()
	// One context carries the whole batch's time budget; deriving it
	// here (rather than computing a time.Now-based deadline per
	// iteration) keeps the wall clock out of the measurement path.
	ctx, cancel := r.queryContext(r.cfg.Timeout * time.Duration(r.cfg.BatchSize))
	defer cancel()
	iterate := func(i int) (int64, error) {
		iter := i
		if q.Mutates {
			// Destructive iterations start at pool slot 1: slot 0 is the
			// interactive half's, and keeping the offset keeps batch
			// parameters identical whether or not the halves ever shared
			// an instance (they did before the micro cell was split).
			iter = i + 1
		}
		res2, err := q.Run(ctx, e, pg.For(q, iter, res))
		return res2.Count, err
	}
	if w := r.cfg.CellWorkers; w > 1 && !q.Mutates && concurrentReads(e) {
		counts := make([]int64, r.cfg.BatchSize)
		errs := make([]error, r.cfg.BatchSize)
		runPool(w, r.cfg.BatchSize, func(i int) { counts[i], errs[i] = iterate(i) })
		for i := 0; i < r.cfg.BatchSize; i++ {
			if errs[i] != nil {
				classify(&total, errs[i])
				break
			}
			total.Count = counts[i]
		}
	} else {
		for i := 0; i < r.cfg.BatchSize; i++ {
			count, err := iterate(i)
			if err != nil {
				classify(&total, err)
				break
			}
			total.Count = count
		}
	}
	total.Elapsed = r.since(start)
	return total
}

// concurrentReads reports whether e's read results are independent of
// read scheduling (engines veto fan-out via core.ConcurrentReader).
func concurrentReads(e core.Engine) bool {
	if cr, ok := e.(core.ConcurrentReader); ok {
		return cr.ConcurrentReads()
	}
	return true
}

// runIndexed builds the attribute index on the Q11 property and re-runs
// Q11 (Figure 4(c)). Engines without user indexes (BlazeGraph) are
// skipped, engines that accept but ignore the index (Sparksee,
// ArangoDB) run unchanged — both as the paper found.
func (r *Runner) runIndexed(c *cellResult, engine, dataset string) error {
	ds := r.dataset(dataset)
	pg := NewParamGen(ds.g, r.cfg.Seed)

	record := func(m Measurement) {
		m.Engine, m.Dataset, m.Mode = engine, dataset, ModeInteractive
		c.indexed = append(c.indexed, m)
	}
	recordDNF := func(err error) {
		record(dnf("Q11(idx)", err))
		record(dnf("Q5(idx)", err))
	}

	e, res, _, err := r.loadInto(engine, dataset)
	if err != nil {
		recordDNF(err)
		return err
	}
	defer e.Close()
	if err := e.BuildVertexPropIndex(pg.vPropName); err != nil {
		if err == core.ErrUnsupported {
			return nil
		}
		recordDNF(err)
		return err
	}
	q := workload.ByName("Q11")
	m := r.timeQuery(e, q, pg.For(q, 0, res))
	m.Query = "Q11(idx)"
	record(m)

	// Index maintenance overhead (Section 6.4: with indexes, CUD slows
	// by ~10%, up to ~30% for Neo 3.0 and ~100% for OrientDB): re-run
	// the property-insertion query against the indexed property.
	q5 := workload.ByName("Q5")
	p5 := pg.For(q5, 1, res)
	p5.NewPropName = pg.vPropName
	m5 := r.timeQuery(e, q5, p5)
	m5.Query = "Q5(idx)"
	record(m5)
	return nil
}

// runComplex executes the 13 LDBC-derived queries (Figure 2) on ldbc.
func (r *Runner) runComplex(c *cellResult, engine string) error {
	ds := r.dataset("ldbc")

	record := func(m Measurement) {
		m.Engine, m.Dataset, m.Mode = engine, "ldbc", ModeInteractive
		c.complex = append(c.complex, m)
	}

	e, res, _, err := r.loadInto(engine, "ldbc")
	if err != nil {
		for _, cq := range workload.ComplexQueries() {
			record(dnf(cq.Name, err))
		}
		return err
	}
	defer e.Close()
	cp := ComplexFor(ds.g, r.cfg.Seed, res)
	for _, cq := range workload.ComplexQueries() {
		ctx, cancel := r.queryContext(r.cfg.Timeout)
		start := r.now()
		res2, err := cq.Run(ctx, e, cp)
		m := Measurement{Query: cq.Name, Elapsed: r.since(start), Count: res2.Count}
		classify(&m, err)
		cancel()
		record(m)
	}
	return nil
}
