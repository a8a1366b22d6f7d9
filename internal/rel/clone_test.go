package rel

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

func rows(t *Table) []Row {
	var out []Row
	for _, id := range t.SortedIDs() {
		r, _ := t.Get(id)
		out = append(out, r)
	}
	return out
}

// TestCloneIsIndependent: updates, deletes, inserts, ALTER TABLE and a
// new index on a clone leave the source's rows, indexes, schema and
// counters as they were.
func TestCloneIsIndependent(t *testing.T) {
	db := NewDB()
	tbl, _ := db.CreateTable("p", "id", "name", "age")
	if err := tbl.CreateIndex("age"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tbl.Insert(Row{core.I(int64(i)), core.S("n"), core.I(int64(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	_, _ = tbl.CountEq("age", core.I(3))
	want, wantBytes := rows(tbl), db.Bytes()
	scans, seeks := tbl.Stats()

	c := db.Clone()
	ct := c.Table("p")
	if !reflect.DeepEqual(rows(ct), want) || c.Bytes() != wantBytes {
		t.Fatal("clone differs from its source")
	}
	if cs, ck := ct.Stats(); cs != scans || ck != seeks {
		t.Fatalf("clone counters %d/%d, source %d/%d", cs, ck, scans, seeks)
	}
	if err := ct.Update(5, "age", core.I(100)); err != nil {
		t.Fatal(err)
	}
	if err := ct.Delete(6); err != nil {
		t.Fatal(err)
	}
	if err := ct.Insert(Row{core.I(500), core.S("x"), core.I(3)}); err != nil {
		t.Fatal(err)
	}
	if err := ct.AlterAddColumn("extra"); err != nil {
		t.Fatal(err)
	}
	if err := ct.CreateIndex("name"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("q", "id"); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows(tbl), want) || db.Bytes() != wantBytes {
		t.Fatal("writes to the clone changed the source's rows or size")
	}
	if n, _ := tbl.CountEq("age", core.I(3)); n != 14 {
		t.Fatalf("source index finds %d rows with age 3, want 14", n)
	}
	if tbl.HasColumn("extra") || tbl.HasIndex("name") || db.Table("q") != nil {
		t.Fatal("schema changes on the clone reached the source")
	}
}
