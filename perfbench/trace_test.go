package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/engines"
	"repro/internal/harness"
)

// The decorator must not change what the program does: core.Guard
// grants the same capabilities, the gremlin optimizer sees the same
// planner statistics, and the harness reads the same concurrency veto.
func TestTracedEngineKeepsCapabilities(t *testing.T) {
	g := datasets.ByName("frb-s").Generate(0.001)
	tr := newTracer()
	for _, name := range engines.Names() {
		plain, err := engines.New(name)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := engines.New(name)
		if err != nil {
			t.Fatal(err)
		}
		traced := tr.wrap(name, inner)
		if _, err := plain.BulkLoad(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := traced.BulkLoad(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gp, gt := core.Guard(plain), core.Guard(traced)
		if gp.Exclusive() != gt.Exclusive() || gp.ConcurrentWrites() != gt.ConcurrentWrites() {
			t.Errorf("%s: guard grants differ: exclusive %v/%v, concurrent writes %v/%v",
				name, gp.Exclusive(), gt.Exclusive(), gp.ConcurrentWrites(), gt.ConcurrentWrites())
		}
		if (gp.PlanStats() == nil) != (gt.PlanStats() == nil) {
			t.Errorf("%s: planner statistics visible %v plain, %v traced", name, gp.PlanStats() != nil, gt.PlanStats() != nil)
		}
		reads := true
		if cr, ok := plain.(core.ConcurrentReader); ok {
			reads = cr.ConcurrentReads()
		}
		if reads != traced.ConcurrentReads() {
			t.Errorf("%s: concurrent reads %v plain, %v traced", name, reads, traced.ConcurrentReads())
		}
		plain.Close()
		traced.Close()
	}
}

// A grid run through decorated engines gives every cell the same
// outcome and result count as a plain run.
func TestTracedGridMatchesPlain(t *testing.T) {
	cfg := harness.Config{
		Engines:   engines.Names(),
		Datasets:  []string{"frb-s", "ldbc"},
		Scale:     0.001,
		BatchSize: 2,
		Workers:   2,
		Seed:      1,
		Isolation: true,
		Timeout:   10 * time.Second,
	}
	run := func() *harness.Results {
		r, err := harness.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run()
	tr := newTracer()
	restore := tr.registerAll()
	traced := run()
	restore()

	b := &bench{res: result{Correct: true, Metrics: map[string]metric{}}}
	checkTwins(b, plain, traced)
	if !b.res.Correct {
		t.Fatal("traced grid differs from the plain grid")
	}
	if len(tr.byEngine) != len(engines.Names()) {
		t.Errorf("traced %d engines, want %d", len(tr.byEngine), len(engines.Names()))
	}
	if tr.total().calls[mNeighbors] == 0 {
		t.Error("no Neighbors call was traced")
	}
	for _, name := range engines.Names() {
		e, err := engines.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, isTraced := e.(*tracedEngine); isTraced {
			t.Errorf("%s: constructor still decorated after restore", name)
		}
		e.Close()
	}
}

// BENCHMARK.json at the repository root lists exactly the metrics the
// benchmark prints, in the same units.
func TestManifestMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		printed := map[string]string{}
		for _, d := range want {
			printed[d.name] = d.unit
		}
		for _, m := range got {
			if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: manifest has %s in %s; the benchmark prints it in %q", kind, m.Name, m.Unit, unit)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEndMetrics)
	check("per_layer", manifest.PerLayer, perLayerMetrics())
}
