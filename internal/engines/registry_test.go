package engines

import (
	"testing"

	"repro/internal/core"
)

func TestAllNamesConstruct(t *testing.T) {
	for _, name := range Names() {
		e, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if got := e.Meta().Name; got != name {
			t.Errorf("Meta().Name = %q, registered as %q", got, name)
		}
		e.Close()
	}
}

func TestUnknownName(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if Constructor("nope") != nil {
		t.Fatal("Constructor returned non-nil for unknown name")
	}
}

func TestForEachVisitsAll(t *testing.T) {
	seen := map[string]bool{}
	err := ForEach(func(e core.Engine) error {
		seen[e.Meta().Name] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(Names()) {
		t.Fatalf("visited %d engines, want %d", len(seen), len(Names()))
	}
}

func TestTable1Metadata(t *testing.T) {
	// The registry must reproduce Table 1's native/hybrid split.
	wantKind := map[string]core.SystemKind{
		"arango":    core.KindHybrid,
		"blaze":     core.KindHybrid,
		"neo-1.9":   core.KindNative,
		"neo-3.0":   core.KindNative,
		"orient":    core.KindNative,
		"sparksee":  core.KindNative,
		"sqlg":      core.KindHybrid,
		"titan-0.5": core.KindHybrid,
		"titan-1.0": core.KindHybrid,
	}
	for name, want := range wantKind {
		e, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Meta().Kind; got != want {
			t.Errorf("%s: kind = %q, want %q", name, got, want)
		}
		e.Close()
	}
}

// TestAllEnginesClone: the harness isolates mutating queries by
// cloning the just-loaded engine, and falls back to a reload for any
// engine that cannot — so every registered configuration must be a
// core.Cloner, or the grid silently pays a reload per mutating query.
func TestAllEnginesClone(t *testing.T) {
	for _, n := range Names() {
		e, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := e.(core.Cloner); !ok {
			t.Errorf("%s does not implement core.Cloner", n)
		}
		e.Close()
	}
}
