// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload in its own process for a fixed number
// of rounds, checks the outputs, and prints one JSON result line:
//
//	perfbench --workload grid|serve-read|serve-write --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics (medians over the
// rounds); every workload reports the same metrics. With --trace 1 it alternates untraced and traced rounds and
// reports the per-layer metrics instead: the traced rounds route every
// engine call through a timing decorator (see trace.go) and the result
// counts of each traced round must equal those of its untraced twin.
// Every layer is measured from outside, by timing calls into its public
// functions; the program under test is not modified.
//
// Build and run it through run.sh, which keeps the Go build cache and
// all scratch files inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"

	"repro/internal/datasets"
	"repro/internal/engines"
)

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench accumulates one run's outcome.
type bench struct {
	res    result
	trace  bool
	rounds int
}

func (b *bench) set(name, unit string, v float64) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail marks the run incorrect and says why on standard error.
func (b *bench) fail(format string, args ...any) {
	b.res.Correct = false
	logf("CHECK FAILED: "+format, args...)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// workloads maps each workload name to its runner and its nominal
// round length on 2 CPUs, which turns --seconds into a fixed round
// count: the same --seconds always does the same work.
var workloads = map[string]struct {
	run       func(b *bench, seed int64)
	roundS    float64
	minRounds int
}{
	"grid":        {runGrid, 9, 1},
	"serve-read":  {runServeRead, 1.5, 4},
	"serve-write": {runServeWrite, 4.5, 4},
}

func main() {
	workload := flag.String("workload", "", "grid, serve-read or serve-write")
	seed := flag.Int64("seed", 1, "workload seed: query parameters and serving op streams")
	seconds := flag.Float64("seconds", 30, "measured time per run; sets the round count")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from traced rounds")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Sized for two CPUs: dataset generation and statistics use at most
	// two goroutines, like the grid workers and the serving clients.
	datasets.SetGenWorkers(2)

	b := &bench{
		res:    result{Correct: true, Metrics: map[string]metric{}},
		trace:  *trace == 1,
		rounds: max(w.minRounds, int(*seconds/w.roundS)),
	}
	if b.trace {
		b.rounds = max(b.rounds, 2) // at least one untraced and one traced round
		// A layer the workload does not reach reads 0.
		for _, d := range perLayerMetrics() {
			b.set(d.name, d.unit, 0)
		}
	}
	w.run(b, *seed)
	if !b.trace {
		b.set("peak_rss_mb", "MB", peakRSSMB())
	}
	if b.res.Attempted < 1 {
		b.fail("no operation attempted")
	}
	if err := b.complete(); err != nil {
		logf("incomplete result: %v", err)
		os.Exit(1)
	}
	out, err := json.Marshal(b.res)
	if err != nil {
		logf("encoding result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what every workload reports with --trace 0; each
// is measured on every workload and is never 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_us", "us"},
	{"peak_rss_mb", "MB"},
	{"space_bytes_per_raw_byte", "ratio"},
}

// queryCategories are the grid's query groups: Table 2's categories,
// the indexed Q11 and the complex LDBC queries.
var queryCategories = []string{"C", "R", "U", "D", "T", "indexed", "complex"}

// serveOps are the serving op kinds.
var serveOps = []string{"read", "traverse", "insert", "update"}

// perLayerMetrics are what every workload reports with --trace 1. A
// layer's times are given as shares of the time around it, so that a
// layer a workload bypasses reads 0 as a share or a count, never as a
// time; every time here is measured on every workload.
func perLayerMetrics() []metricDef {
	defs := []metricDef{
		{"datasets.generate_s", "s"},
		{"datasets.open_s", "s"},
		{"engines.bulkload_s", "s"},
		{"engines.busy_s", "s"},
		{"engines.calls", "count"},
	}
	for _, name := range engines.Names() {
		defs = append(defs, metricDef{"engines.busy_share." + name, "ratio"})
	}
	for _, m := range reportedMethods {
		defs = append(defs,
			metricDef{"engines.calls." + methodNames[m], "count"},
			metricDef{"engines.busy_share." + methodNames[m], "ratio"})
	}
	defs = append(defs,
		metricDef{"gremlin.self_share", "ratio"},
		metricDef{"gremlin.rows_per_result", "ratio"})
	for _, cat := range queryCategories {
		defs = append(defs, metricDef{"workload.query_share." + cat, "ratio"})
	}
	defs = append(defs, metricDef{"harness.unattributed_share", "ratio"})
	for _, op := range serveOps {
		defs = append(defs, metricDef{"serve.self_share." + op, "ratio"})
	}
	return append(defs,
		metricDef{"serve.engine_share", "ratio"},
		metricDef{"serve.p99_over_p50", "ratio"},
		metricDef{"lsm.row_cache_hit_ratio", "ratio"},
		metricDef{"lsm.flushes", "count"},
		metricDef{"lsm.compactions", "count"},
		metricDef{"lsm.runs", "count"},
		metricDef{"lsm.wal_syncs", "count"},
		metricDef{"lsm.records_per_sync", "ratio"},
		metricDef{"lsm.store_bytes", "B"},
		metricDef{"lsm.store_bytes_per_write", "B/op"},
		metricDef{"lsm.recovery_records_per_s", "1/s"},
		metricDef{"trace.overhead", "ratio"},
	)
}

// complete checks that the result holds exactly the metrics of its
// mode, each in its unit, every time above 0 and no value NaN.
func (b *bench) complete() error {
	defs := endToEndMetrics
	if b.trace {
		defs = perLayerMetrics()
	}
	if len(b.res.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics, want %d", len(b.res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := b.res.Metrics[d.name]
		switch {
		case !ok:
			return fmt.Errorf("%s missing", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("%s in %s, want %s", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("%s is %v", d.name, m.Value)
		case (!b.trace || d.unit == "s") && m.Value <= 0:
			return fmt.Errorf("%s is %v", d.name, m.Value)
		}
	}
	return nil
}

// setupReps is how many times each workload repeats its set-up; the
// reported setup_s is the median.
const setupReps = 7

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// roundSeed derives a round's seed from the run's, so each round draws
// its own inputs and one run samples many of them.
func roundSeed(seed int64, round int) int64 { return seed*1000 + int64(round) }

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// scratchDir makes a private directory under the temp dir, which
// run.sh points inside the checkout.
func scratchDir(prefix string) string {
	d, err := os.MkdirTemp("", prefix)
	if err != nil {
		logf("scratch dir: %v", err)
		os.Exit(1)
	}
	return d
}
