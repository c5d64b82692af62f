package exp

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/netem"
	"repro/internal/scenario"
)

// TestAxisNamesUnique: a flag, a request key and a label each name one
// row, and every row has all three plus its help text.
func TestAxisNamesUnique(t *testing.T) {
	flags, keys, labels := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, a := range Axes() {
		if a.Flag == "" || a.Key == "" || a.Label == "" || a.Help == "" {
			t.Errorf("row %+v misses a name or its help", a)
		}
		if flags[a.Flag] || keys[a.Key] || labels[a.Label] {
			t.Errorf("row %s/%s/%s repeats a name of an earlier row", a.Label, a.Flag, a.Key)
		}
		flags[a.Flag], keys[a.Key], labels[a.Label] = true, true, true
	}
}

// axisPool holds, per axis label, legal values written the way a cell
// label prints them, so a cell can be checked against its grid without
// knowing the Go type of any axis.
var axisPool = map[string][]string{
	"peers":      {"2", "4", "8"},
	"churn":      {"0", "0.25", "0.5"},
	"class":      {"dsl", "lan", "modem"},
	"model":      {"pipe", "flow"},
	"window":     {"0s", "50ms", "250ms"},
	"scenario":   {"flash-crowd", "gossip-partition", "lossy-mobile-gossip"},
	"rules":      {"0", "100", "200"},
	"classifier": {"linear", "indexed"},
	"piece":      {"262144", "524288", "1048576"},
	"conncap":    {"2", "3", "5"},
	"rate":       {"0", "65536", "131072"},
	"seed":       {"1", "2", "3"},
}

// TestCellsProperties expands seeded random grids of every family — a
// random subset of the axes the family reads, one to three values each
// — and holds the expansion to what it promises: the count is the
// product less the two collapse rules; cells come in table order
// carrying their position; every cell is a distinct combination of the
// grid's values, which with the count makes the expansion exhaustive;
// every cell of a spec family compiles to a scenario that validates, and
// no two to the same one; and
// expanding is repeatable and leaves the caller's grid alone.
func TestCellsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, e := range Experiments {
		def, err := Grid{Experiment: e}.Cells()
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 25; trial++ {
			// vals[i] is what axis i ranges over, as label text.
			vals := make([][]string, len(axes))
			var g, pristine Grid
			for i, a := range axes {
				switch {
				case slices.Contains(a.reads, e) && rng.Intn(2) == 0:
					pool := slices.Clone(axisPool[a.Label])
					if pool == nil {
						t.Fatalf("no value pool for axis %s: add one to axisPool", a.Label)
					}
					rng.Shuffle(len(pool), func(x, y int) { pool[x], pool[y] = pool[y], pool[x] })
					vals[i] = pool[:1+rng.Intn(len(pool))]
					for _, grid := range []*Grid{&g, &pristine} {
						if err := a.Parse(grid, strings.Join(vals[i], ",")); err != nil {
							t.Fatal(err)
						}
					}
				case a.Label == "scenario" && e == ExpScenario:
					vals[i] = scenario.Names()
				default: // the family's one default, as its default cell prints it
					vals[i] = []string{a.col.label(&def[0])}
				}
			}
			g.Experiment, pristine.Experiment = e, e
			checkExpansion(t, g, pristine, vals)
		}
	}
}

func checkExpansion(t *testing.T, g, pristine Grid, vals [][]string) {
	t.Helper()
	at := map[string]int{} // label -> row
	for i, a := range axes {
		at[a.Label] = i
	}
	models, windows := vals[at["model"]], vals[at["window"]]
	rules, classifiers := vals[at["rules"]], vals[at["classifier"]]

	cells, err := g.Cells()
	windowNeedsFlow := slices.ContainsFunc(windows, func(w string) bool { return w != "0s" }) && !slices.Contains(models, "flow")
	classifierNeedsRules := len(g.Classifiers) > 0 && !slices.ContainsFunc(rules, func(r string) bool { return r != "0" })
	if windowNeedsFlow || classifierNeedsRules {
		if err == nil {
			t.Errorf("%+v: a cross-axis rule went unenforced", g)
		}
		return
	}
	if err != nil {
		t.Fatalf("%+v: %v", g, err)
	}
	if again, err := g.Cells(); err != nil || !reflect.DeepEqual(cells, again) {
		t.Fatalf("%+v: a second expansion differs (%v)", g, err)
	}
	if !reflect.DeepEqual(g, pristine) {
		t.Fatalf("Cells changed the caller's grid:\n got %+v\nwant %+v", g, pristine)
	}

	// The product, less the collapse rules: a pipe model is one cell
	// where the flow model is one per window, and a zero rule count one
	// cell where a nonzero count is one per classifier.
	modelWindow := len(models)
	if slices.Contains(models, "flow") {
		modelWindow += len(windows) - 1
	}
	nonzero := len(rules)
	if slices.Contains(rules, "0") {
		nonzero--
	}
	want := modelWindow * (nonzero*len(classifiers) + len(rules) - nonzero)
	for i, a := range axes {
		if !slices.Contains([]string{"model", "window", "rules", "classifier"}, a.Label) {
			want *= len(vals[i])
		}
	}
	if len(cells) != want {
		t.Fatalf("%+v: %d cells, want %d", g, len(cells), want)
	}

	// Each cell's position per axis; a value that means nothing in the
	// cell sits at the axis's first place, printed in canonical form.
	specs := map[string]Cell{}
	var prev []int
	for n, c := range cells {
		pos := make([]int, len(axes))
		for i, a := range axes {
			text := a.col.label(&c)
			switch {
			case a.Label == "window" && c.Model != netem.ModelFlow:
				if c.Window != 0 {
					t.Fatalf("%s: a pipe cell carries a window", c)
				}
			case a.Label == "classifier" && c.Rules == 0:
				if text != classifiers[0] {
					t.Fatalf("%s: a rules=0 cell carries classifier %s, want the first (%s)", c, text, classifiers[0])
				}
			default:
				if pos[i] = slices.Index(vals[i], text); pos[i] < 0 {
					t.Fatalf("%s: %s=%s is not one of the grid's %v", c, a.Label, text, vals[i])
				}
			}
		}
		if prev != nil && slices.Compare(prev, pos) >= 0 {
			t.Fatalf("%+v: cell %d (%s) at %v does not follow %v in table order", g, n, c, pos, prev)
		}
		prev = pos

		if g.Experiment == ExpSched {
			continue
		}
		sp, err := c.Spec()
		if err != nil {
			t.Fatal(err)
		}
		// The spec validates, so no axis writes a knob its family's
		// workload kind does not read.
		if err := sp.WithDefaults().Validate(); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		blob, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		if twin, dup := specs[string(blob)]; dup {
			t.Fatalf("%s and %s compile to one scenario: %s", twin, c, blob)
		}
		specs[string(blob)] = c
	}
}
