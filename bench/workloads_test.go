package main

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/scenario"
)

func workloadData(t *testing.T, name string) []byte {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w.data
}

// TestScenarioSpecsLoad: the bench-owned specs parse and validate.
func TestScenarioSpecsLoad(t *testing.T) {
	for _, w := range workloads {
		if w.kind != kindScenario {
			continue
		}
		sp, err := scenario.Load(w.data)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		if err := sp.WithDefaults().Validate(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if sp.Name != w.name {
			t.Errorf("%s: spec is named %q", w.name, sp.Name)
		}
	}
}

// TestSnapshotCappedTracksCorpus: snapshot-capped is the corpus
// scenario snapshot-flash-crowd-capped with another name, description
// and file size, and nothing else changed.
func TestSnapshotCappedTracksCorpus(t *testing.T) {
	got, err := scenario.Load(workloadData(t, "snapshot-capped"))
	if err != nil {
		t.Fatal(err)
	}
	want, ok := scenario.ByName("snapshot-flash-crowd-capped")
	if !ok {
		t.Fatal("corpus has no snapshot-flash-crowd-capped")
	}
	ours, theirs := got.WithDefaults(), want.WithDefaults()
	if ours.Workload.FileSize == theirs.Workload.FileSize {
		t.Errorf("file size %d is the corpus's own", ours.Workload.FileSize)
	}
	ours.Name, ours.Description, ours.Workload.FileSize = theirs.Name, theirs.Description, theirs.Workload.FileSize
	if !reflect.DeepEqual(ours, theirs) {
		t.Errorf("snapshot-capped differs from the corpus scenario beyond name, description and file size:\n%+v\n%+v", ours, theirs)
	}
}

// TestSweepGridsExpand: the three grids resolve and expand into the 22
// cells, two seeds each.
func TestSweepGridsExpand(t *testing.T) {
	var ss sweepSpec
	if err := json.Unmarshal(workloadData(t, "sweep-overlay"), &ss); err != nil {
		t.Fatal(err)
	}
	if ss.Workers != 2 || len(ss.Grids) != 3 {
		t.Fatalf("%d workers, %d grids; want 2 and 3", ss.Workers, len(ss.Grids))
	}
	total := 0
	for _, gs := range ss.Grids {
		g, err := gs.grid()
		if err != nil {
			t.Fatal(err)
		}
		cells, err := g.Cells()
		if err != nil {
			t.Fatalf("%s: %v", gs.Experiment, err)
		}
		total += len(cells)
		if len(g.Seeds) != 2 {
			t.Errorf("%s: seed axis %v, want two seeds", gs.Experiment, g.Seeds)
		}
	}
	if total != 22 {
		t.Errorf("%d cells, want 22", total)
	}
}

// TestCorpusGoldenCoversTheCorpus: one pass runs every committed
// scenario except the two flow-model snapshot ones, whose cost is the
// kernel-queue pathology snapshot-capped already measures.
func TestCorpusGoldenCoversTheCorpus(t *testing.T) {
	var cs corpusSpec
	if err := json.Unmarshal(workloadData(t, "corpus-golden"), &cs); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, name := range scenario.Names() {
		if name != "snapshot-flash-crowd-capped" && name != "snapshot-cold-cdn-fill" {
			want = append(want, name)
		}
	}
	got := append([]string(nil), cs.Scenarios...)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("corpus-golden runs %v, want %v", got, want)
	}
}
