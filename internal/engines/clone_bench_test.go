package engines

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
)

// BenchmarkCloneVsBulkLoad compares the two ways the harness can give a
// mutating query an unperturbed instance: a fresh BulkLoad of the
// dataset, or a Clone of a loaded instance. Each iteration does both on
// ldbc at scale 0.001; ns/op is their sum, and the custom metrics split
// it: load-ns/op, clone-ns/op and their ratio clone/load.
func BenchmarkCloneVsBulkLoad(b *testing.B) {
	g := datasets.ByName("ldbc").Generate(0.001)
	g.Snapshot() // the CSR is shared by every load; build it outside the timings
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			var load, clone time.Duration
			for i := 0; i < b.N; i++ {
				e, err := New(name)
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if _, err := e.BulkLoad(g); err != nil {
					b.Fatal(err)
				}
				mid := time.Now()
				c, err := e.(core.Cloner).Clone()
				if err != nil {
					b.Fatal(err)
				}
				clone += time.Since(mid)
				load += mid.Sub(start)
				c.Close()
				e.Close()
			}
			b.ReportMetric(float64(load.Nanoseconds())/float64(b.N), "load-ns/op")
			b.ReportMetric(float64(clone.Nanoseconds())/float64(b.N), "clone-ns/op")
			b.ReportMetric(float64(clone)/float64(load), "clone/load")
		})
	}
}
