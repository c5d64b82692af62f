package metrics

import (
	"strings"
	"testing"
)

func TestAggregateMerge(t *testing.T) {
	a := NewAggregate()
	for i := 0; i < 3; i++ {
		s := NewSnapshot()
		s.Label("cell", string(rune('a'+i)))
		s.Set("latency-ms", float64(10*(i+1)))
		s.Count("events", 100)
		s.Count("drops", uint64(i))
		a.Add(s)
	}
	a.Add(nil) // failed cells contribute nothing
	if a.Counters["events"] != 300 || a.Counters["drops"] != 3 {
		t.Fatalf("counters = %v", a.Counters)
	}
	sum := a.Summary("latency-ms")
	if sum.N != 3 || sum.Min != 10 || sum.Max != 30 || sum.Mean != 20 {
		t.Fatalf("summary = %+v", sum)
	}
	tbl := a.Table()
	if len(tbl.Rows) != 3 { // 1 value + 2 counters
		t.Fatalf("table rows = %d, want 3", len(tbl.Rows))
	}
}

// TestAggregateCounterCells: a counter's "n" is the number of cells
// that recorded it, not the total number of merged cells.
func TestAggregateCounterCells(t *testing.T) {
	a := NewAggregate()
	for i := 0; i < 4; i++ {
		s := NewSnapshot()
		s.Count("events", 10)
		if i == 0 {
			s.Count("rare", 7) // only one cell measures this
		}
		a.Add(s)
	}
	if a.CounterCells["events"] != 4 || a.CounterCells["rare"] != 1 {
		t.Fatalf("CounterCells = %v", a.CounterCells)
	}
	tbl := a.Table()
	var rareRow []string
	for _, row := range tbl.Rows {
		if row[0] == "rare (total)" {
			rareRow = row
		}
	}
	if rareRow == nil {
		t.Fatal("rare counter missing from table")
	}
	if rareRow[1] != "1" {
		t.Fatalf("rare n = %q, want 1 (recorded by one cell of four)", rareRow[1])
	}
}

func TestWriteSnapshotsCSV(t *testing.T) {
	s1 := NewSnapshot()
	s1.Label("exp", "dht")
	s1.Label("class", "dsl, fast") // needs quoting
	s1.Set("hops", 3.5)
	s1.Count("timeouts", 2)
	s2 := NewSnapshot()
	s2.Label("exp", "dht")
	s2.Set("hops", 4.0)
	s2.Set("extra", 1) // column union: s1 leaves this blank

	var b strings.Builder
	if err := WriteSnapshotsCSV(&b, []*Snapshot{s1, nil, s2}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 rows:\n%s", len(lines), b.String())
	}
	if lines[0] != "class,exp,extra,hops,timeouts" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != `"dsl, fast",dht,,3.5,2` {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if lines[2] != ",dht,1,4," {
		t.Fatalf("row 2 = %q", lines[2])
	}
}
