package harness

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/workload"
)

// loadCounter decorates an engine and counts its BulkLoad calls. It
// forwards the optional capabilities the harness and the gremlin
// optimizer read — except core.Cloner, so a grid run through it
// isolates mutating queries by reloading.
type loadCounter struct {
	core.Engine
	loads *atomic.Int64
}

func (d loadCounter) BulkLoad(g *core.Graph) (*core.LoadResult, error) {
	d.loads.Add(1)
	return d.Engine.BulkLoad(g)
}

func (d loadCounter) PlanStats() *core.PlanStats {
	if p, ok := d.Engine.(core.PlanStatsProvider); ok {
		return p.PlanStats()
	}
	return nil
}

func (d loadCounter) ConcurrentReads() bool { return concurrentReads(d.Engine) }

// cloningCounter is a loadCounter that also forwards core.Cloner.
type cloningCounter struct{ loadCounter }

func (d cloningCounter) Clone() (core.Engine, error) {
	c, err := d.Engine.(core.Cloner).Clone()
	if err != nil {
		return nil, err
	}
	return cloningCounter{loadCounter{c, d.loads}}, nil
}

// countLoads re-registers every engine behind a load-counting
// decorator, with or without core.Cloner, for the duration of fn.
func countLoads(clone bool, fn func()) int64 {
	var loads atomic.Int64
	for _, name := range engines.Names() {
		inner := engines.Constructor(name)
		unregister := engines.Register(name, func() core.Engine {
			d := loadCounter{inner(), &loads}
			if clone {
				return cloningCounter{d}
			}
			return d
		})
		defer unregister()
	}
	fn()
	return loads.Load()
}

// TestIsolationByCloneMatchesReload: running each mutating micro query
// on a clone of the pristine just-loaded instance exports exactly the
// bytes that reloading before each one does, on all nine engines and
// three datasets, while bulk-loading 3 times per (engine, dataset) — 4
// on ldbc, for the complex workload — instead of 27 (28).
func TestIsolationByCloneMatchesReload(t *testing.T) {
	cfg := Config{
		Engines:   engines.Names(),
		Datasets:  []string{"frb-s", "mico", "ldbc"},
		Scale:     0.001,
		BatchSize: 3,
		Seed:      7,
		Isolation: true,
		Workers:   2,
		Timeout:   time.Minute,
	}
	run := func(clone bool) ([]byte, int64) {
		var buf bytes.Buffer
		loads := countLoads(clone, func() {
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			frozenClock(r)
			res, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range append(res.Micro, res.Indexed...) {
				if m.Failed || m.TimedOut {
					t.Errorf("clone=%v: %s %s on %s/%s failed: %s", clone, m.Query, m.Mode, m.Engine, m.Dataset, m.Error)
				}
			}
			if err := ExportJSON(res, &buf); err != nil {
				t.Fatal(err)
			}
		})
		return buf.Bytes(), loads
	}
	reloaded, reloads := run(false)
	cloned, loads := run(true)

	mutating := 0
	for _, q := range workload.Queries() {
		if q.Mutates {
			mutating++
		}
	}
	n := int64(len(cfg.Engines))
	// Per engine and dataset: two micro halves and the indexed cell,
	// plus the complex cell on ldbc; reloading adds one load per
	// mutating query per half.
	if want := n * (3*3 + 1 + 3*2*int64(mutating)); reloads != want {
		t.Errorf("reload isolation made %d bulk loads, want %d", reloads, want)
	}
	if want := n * (3*3 + 1); loads != want {
		t.Errorf("clone isolation made %d bulk loads, want %d", loads, want)
	}
	if !bytes.Equal(reloaded, cloned) {
		rl, cl := strings.Split(string(reloaded), "\n"), strings.Split(string(cloned), "\n")
		for i := range rl {
			if i >= len(cl) || rl[i] != cl[i] {
				t.Fatalf("exports diverge at line %d:\nreload: %s\nclone:  %s", i+1, rl[i], cl[min(i, len(cl)-1)])
			}
		}
		t.Fatalf("exports differ in length: %d vs %d bytes", len(reloaded), len(cloned))
	}
}
