// Package zeroalloc is the test helper behind the guards that keep the
// storage substrates' lookups allocation-free (docs/INVARIANTS.md).
package zeroalloc

import "testing"

// Check fails t unless fn allocates nothing, averaged over runs calls
// that follow one warm-up call (testing.AllocsPerRun). The race
// detector changes allocation counts, so under -race Check skips and
// says why; run the guards without -race.
func Check(t *testing.T, runs int, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race; run without -race")
	}
	if n := testing.AllocsPerRun(runs, fn); n != 0 {
		t.Errorf("%v allocations per run, want 0", n)
	}
}
