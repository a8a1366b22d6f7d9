package harness

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/workload"
)

// rawVertexSlot is the vertex a pool slot holds, repeats included.
func rawVertexSlot(pg *ParamGen, qNum, slot int) int {
	return pg.picks.Vertices[(qNum*3*paramPoolPerQuery+slot)%len(pg.picks.Vertices)]
}

// TestDestructiveTargetsAreDistinct is the regression test for batch
// deletes failing with core.ErrNotFound: on mico with seed 1005, Q18's
// vertex pool repeats a vertex within the first batch iterations, so
// the batch used to delete the same vertex twice. Every iteration must
// now get its own target.
func TestDestructiveTargetsAreDistinct(t *testing.T) {
	g := datasets.ByName("mico").Generate(0.001)
	// Engine IDs equal dataset indexes, so targets read as indexes.
	res := &core.LoadResult{VertexIDs: make([]core.ID, g.NumVertices()), EdgeIDs: make([]core.ID, g.NumEdges())}
	for i := range res.VertexIDs {
		res.VertexIDs[i] = core.ID(i)
	}
	for i := range res.EdgeIDs {
		res.EdgeIDs[i] = core.ID(i)
	}
	pg := NewParamGen(g, 1005)
	q18 := workload.ByName("Q18")
	if rawVertexSlot(pg, 18, 1) != rawVertexSlot(pg, 18, 3) {
		t.Fatal("the seed no longer reproduces a repeated Q18 target; pick another")
	}
	for _, q := range workload.Queries() {
		if !q.Mutates {
			continue
		}
		seenV, seenE := map[int64]int{}, map[int64]int{}
		for iter := 0; iter <= 10; iter++ {
			p := pg.For(&q, iter, res)
			if prev, dup := seenV[int64(p.V)]; dup {
				t.Errorf("%s: iterations %d and %d both target vertex %d", q.Name, prev, iter, p.V)
			}
			if prev, dup := seenE[int64(p.E)]; dup {
				t.Errorf("%s: iterations %d and %d both target edge %d", q.Name, prev, iter, p.E)
			}
			seenV[int64(p.V)], seenE[int64(p.E)] = iter, iter
		}
	}
	// Slots before the first repeat keep the parameters they always had.
	for iter := 0; iter < 3; iter++ {
		if got, want := int(pg.For(q18, iter, res).V), rawVertexSlot(pg, 18, iter); got != want {
			t.Errorf("Q18 iteration %d targets %d, want the pool's own slot %d", iter, got, want)
		}
	}
	if got, want := pg.DatasetVertexIndex(q18, 3), int(pg.For(q18, 3, res).V); got != want {
		t.Errorf("DatasetVertexIndex(Q18, 3) = %d, For targets %d", got, want)
	}
}

// TestBatchDeletesSucceedOnRepeatedPool runs the grid cell that used to
// fail: Q18 in batch mode on mico with seed 1005.
func TestBatchDeletesSucceedOnRepeatedPool(t *testing.T) {
	r, err := NewRunner(Config{
		Engines:   []string{"neo-1.9", "sqlg"},
		Datasets:  []string{"mico"},
		Scale:     0.001,
		BatchSize: 3,
		Seed:      1005,
		Isolation: true,
		Timeout:   time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Micro {
		if m.Failed {
			t.Errorf("%s %s on %s failed: %s", m.Query, m.Mode, m.Engine, m.Error)
		}
	}
}
