package exp

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/topo"
)

// Axis is one sweep axis: a row of the table below, the only place
// that says what the axis is called, which families read it, what it
// defaults to, which values it takes and when a cell prints it.
// Grid.Cells, RunCell's labels, the `p2plab sweep` flags and serve's
// sweep requests all walk the rows, so a new axis is a Grid column, a
// Cell field, a row here and the Cell.Spec line that gives it meaning.
type Axis struct {
	Label string // snapshot label key, and the axis's name in errors
	Flag  string // `p2plab sweep` flag
	Key   string // serve sweep-request JSON key
	Help  string // flag help text

	// reads lists the families that read the axis. Every other family
	// must leave it unset: one explicit value is enough to label each
	// row with a knob that never ran.
	reads []Experiment
	// labels says when a cell's snapshot carries the label; nil means
	// whenever the family reads the axis.
	labels func(Cell) bool
	// jsonUnit is what a JSON number on the axis counts, as the suffix
	// that makes it a value the flag's reader takes.
	jsonUnit string
	col      column
}

// Axes returns the sweep axes in grid nesting order (the first varies
// slowest).
func Axes() []Axis { return slices.Clone(axes) }

var (
	firewallFamilies = []Experiment{ExpSwarm, ExpChurn, ExpPing}
	// linkFamilies build their network from the cell; a scenario spec
	// owns its own classes and model, sched has no network.
	linkFamilies     = []Experiment{ExpSwarm, ExpChurn, ExpDHT, ExpGossip, ExpPing, ExpSnapshotSync}
	snapshotFamilies = []Experiment{ExpSnapshotSync}
)

var axes = []Axis{
	{
		Label: "peers", Flag: "peers", Key: "peers",
		Help: "comma-separated population sizes (default: experiment-specific)",
		// A scenario spec owns its populations; ping is a fixed pair.
		reads:  []Experiment{ExpSwarm, ExpChurn, ExpDHT, ExpGossip, ExpSched, ExpSnapshotSync},
		labels: exceptScenario,
		col: &col[int]{
			grid: func(g *Grid) *[]int { return &g.Peers },
			cell: func(c *Cell) *int { return &c.Peers },
			// Few peers moving a huge file is the snapshot regime's point.
			def:  defaults(16, map[Experiment]int{ExpSched: 100, ExpPing: 2, ExpSnapshotSync: 4}),
			read: strconv.Atoi,
		},
	},
	{
		Label: "churn", Flag: "churn", Key: "churn",
		Help:   "comma-separated churn fractions in [0,1)",
		reads:  []Experiment{ExpSwarm, ExpChurn},
		labels: exceptScenario,
		col: &col[float64]{
			grid: func(g *Grid) *[]float64 { return &g.Churn },
			cell: func(c *Cell) *float64 { return &c.Churn },
			def:  defaults(0, map[Experiment]float64{ExpChurn: 0.5}),
			valid: func(ch float64) error {
				if !(ch >= 0 && ch < 1) {
					return fmt.Errorf("fraction %g outside [0,1)", ch)
				}
				return nil
			},
			read: func(s string) (float64, error) { return strconv.ParseFloat(s, 64) },
		},
	},
	{
		Label: "class", Flag: "class", Key: "classes",
		Help:   "comma-separated link classes (" + classNames() + ")",
		reads:  linkFamilies,
		labels: exceptScenario,
		col: &col[topo.LinkClass]{
			grid: func(g *Grid) *[]topo.LinkClass { return &g.Classes },
			cell: func(c *Cell) *topo.LinkClass { return &c.Class },
			// Ping measures Fig 6 on the paper's gigabit network.
			def: defaults(topo.DSL, map[Experiment]topo.LinkClass{ExpPing: topo.GigE}),
			read: func(s string) (topo.LinkClass, error) {
				cl, ok := topo.ClassByName(s)
				if !ok {
					return cl, fmt.Errorf("unknown link class %q", s)
				}
				return cl, nil
			},
			show: func(cl topo.LinkClass) string { return cl.Name },
		},
	},
	{
		Label: "model", Flag: "model", Key: "models",
		Help:   "comma-separated link models (pipe, flow)",
		reads:  linkFamilies,
		labels: exceptScenario,
		col: &col[netem.ModelKind]{
			grid: func(g *Grid) *[]netem.ModelKind { return &g.Models },
			cell: func(c *Cell) *netem.ModelKind { return &c.Model },
			def:  defaults(netem.ModelPipe, nil),
			read: netem.ParseModel,
		},
	},
	{
		Label: "window", Flag: "window", Key: "windows",
		Help: "comma-separated flow-model batch windows (e.g. 0,50ms,250ms; needs -model flow)",
		// A scenario spec owns its flow_window; dht and gossip sweeps hold
		// it at 0.
		reads: []Experiment{ExpSwarm, ExpChurn, ExpPing, ExpSnapshotSync},
		// Only a flow cell has a solver to batch, and window=0 flow cells
		// are the per-event behaviour older sweeps recorded without the
		// label.
		labels: func(c Cell) bool { return c.Window > 0 },
		col: &col[time.Duration]{
			grid:  func(g *Grid) *[]time.Duration { return &g.Windows },
			cell:  func(c *Cell) *time.Duration { return &c.Window },
			def:   defaults(time.Duration(0), nil),
			valid: atLeast(time.Duration(0)),
			read: func(s string) (time.Duration, error) {
				// "0" reads naturally in a window list; ParseDuration
				// demands a unit.
				if s == "0" {
					return 0, nil
				}
				return time.ParseDuration(s)
			},
		},
		jsonUnit: "ns", // as everywhere a spec takes a duration
	},
	{
		Label: "scenario", Flag: "scenario", Key: "scenarios",
		Help:  "comma-separated corpus scenario names (scenario experiment; default: all)",
		reads: []Experiment{ExpScenario},
		col: &col[string]{
			grid: func(g *Grid) *[]string { return &g.Scenarios },
			cell: func(c *Cell) *string { return &c.Scenario },
			def: func(e Experiment) []string {
				if e == ExpScenario {
					return scenario.Names()
				}
				return []string{""}
			},
			read: func(s string) (string, error) { return s, nil },
		},
	},
	{
		Label: "rules", Flag: "rules", Key: "rules",
		Help: "comma-separated firewall rule-table sizes (ping and swarm families)",
		// Every message of a firewalled swarm pays the scan Fig 6 measures.
		reads: firewallFamilies,
		col: &col[int]{
			grid:  func(g *Grid) *[]int { return &g.Rules },
			cell:  func(c *Cell) *int { return &c.Rules },
			def:   defaults(0, nil),
			valid: atLeast(0),
			read:  strconv.Atoi,
		},
	},
	{
		Label: "classifier", Flag: "classifier", Key: "classifiers",
		Help:  "comma-separated firewall classifiers (linear, indexed)",
		reads: firewallFamilies,
		// A swarm cell with no rules runs without a firewall (Cell.Spec
		// leaves it disabled), so the label would name a classifier that
		// never ran; ping always installs the table, empty or not.
		labels: func(c Cell) bool { return c.Rules > 0 || c.Experiment == ExpPing },
		col: &col[netem.Classifier]{
			grid: func(g *Grid) *[]netem.Classifier { return &g.Classifiers },
			cell: func(c *Cell) *netem.Classifier { return &c.Classifier },
			def:  defaults(netem.ClassifierLinear, nil),
			read: netem.ParseClassifier,
		},
	},
	{
		Label: "piece", Flag: "pieces", Key: "piece_sizes",
		Help:  "comma-separated piece sizes in bytes (snapshot-sync; default 2097152)",
		reads: snapshotFamilies,
		col: &col[int]{
			grid:  func(g *Grid) *[]int { return &g.PieceSizes },
			cell:  func(c *Cell) *int { return &c.PieceSize },
			def:   defaults(0, map[Experiment]int{ExpSnapshotSync: 2 << 20}),
			valid: atLeast(1),
			read:  strconv.Atoi,
		},
	},
	{
		Label: "conncap", Flag: "conncap", Key: "conn_caps",
		Help:  "comma-separated per-client connection caps (snapshot-sync; default 5)",
		reads: snapshotFamilies,
		col: &col[int]{
			grid:  func(g *Grid) *[]int { return &g.ConnCaps },
			cell:  func(c *Cell) *int { return &c.ConnCap },
			def:   defaults(0, map[Experiment]int{ExpSnapshotSync: 5}),
			valid: atLeast(1),
			read:  strconv.Atoi,
		},
	},
	{
		Label: "rate", Flag: "rate", Key: "rates",
		Help:  "comma-separated symmetric rate caps in bytes/s, 0 = unlimited (snapshot-sync)",
		reads: snapshotFamilies,
		col: &col[int64]{
			grid:  func(g *Grid) *[]int64 { return &g.Rates },
			cell:  func(c *Cell) *int64 { return &c.Rate },
			def:   defaults(int64(0), nil),
			valid: atLeast(int64(0)),
			read:  parseInt64,
		},
	},
	{
		Label: "seed", Flag: "seeds", Key: "seeds",
		Help:  "comma-separated random seeds",
		reads: Experiments,
		col: &col[int64]{
			grid: func(g *Grid) *[]int64 { return &g.Seeds },
			cell: func(c *Cell) *int64 { return &c.Seed },
			def:  defaults(int64(1), nil),
			read: parseInt64,
		},
	},
}

// classNames lists topo.Classes for the class axis's help.
func classNames() string {
	var names []string
	for _, cl := range topo.Classes() {
		names = append(names, cl.Name)
	}
	return strings.Join(names, ", ")
}

// exceptScenario is the label rule of the four original axes: every
// cell but a scenario's carries them, read or not, so result rows keep
// the columns they always had (a sched row says class=dsl).
func exceptScenario(c Cell) bool { return c.Experiment != ExpScenario }

// labelled reports whether the cell's snapshot carries the axis.
func (a *Axis) labelled(c Cell) bool {
	if a.labels != nil {
		return a.labels(c)
	}
	return slices.Contains(a.reads, c.Experiment)
}

// defaults is a column default: v, or the family's own entry in per.
func defaults[T any](v T, per map[Experiment]T) func(Experiment) []T {
	return func(e Experiment) []T {
		if own, ok := per[e]; ok {
			return []T{own}
		}
		return []T{v}
	}
}

func atLeast[T cmp.Ordered](min T) func(T) error {
	return func(v T) error {
		if v < min {
			return fmt.Errorf("%v is below %v", v, min)
		}
		return nil
	}
}

func parseInt64(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

// column is a row's typed half, the value type erased: fill gives an
// empty Grid column the family's default and reports the column's
// length and whether the caller had set it, check rejects out-of-range
// and repeated values, set is the odometer step (the cell takes the
// column's i-th value), label prints the cell's value and parse reads
// the column from one text per value.
type column interface {
	fill(g *Grid, e Experiment) (n int, explicit bool)
	check(g *Grid, axis string) error
	set(c *Cell, g *Grid, i int)
	label(c *Cell) string
	parse(g *Grid, texts []string) error
}

// col binds an axis to its Grid column and Cell field. The value type
// differs from row to row; what the engine does with a value does not,
// and is written once here.
type col[T comparable] struct {
	grid  func(*Grid) *[]T
	cell  func(*Cell) *T
	def   func(Experiment) []T
	valid func(T) error           // range check on one explicit value; nil takes any
	read  func(string) (T, error) // one value, as the flag spells it
	show  func(T) string          // label and error text; nil is fmt.Sprint
}

func (c *col[T]) fill(g *Grid, e Experiment) (int, bool) {
	vs := c.grid(g)
	explicit := len(*vs) > 0
	if !explicit {
		*vs = c.def(e)
	}
	return len(*vs), explicit
}

func (c *col[T]) check(g *Grid, axis string) error {
	seen := map[T]bool{}
	for _, v := range *c.grid(g) {
		if c.valid != nil {
			if err := c.valid(v); err != nil {
				return fmt.Errorf("exp: %s axis: %w", axis, err)
			}
		}
		if seen[v] {
			return fmt.Errorf("exp: duplicate %s axis value %s", axis, c.text(v))
		}
		seen[v] = true
	}
	return nil
}

func (c *col[T]) set(cell *Cell, g *Grid, i int) { *c.cell(cell) = (*c.grid(g))[i] }

func (c *col[T]) label(cell *Cell) string { return c.text(*c.cell(cell)) }

func (c *col[T]) text(v T) string {
	if c.show != nil {
		return c.show(v)
	}
	return fmt.Sprint(v)
}

func (c *col[T]) parse(g *Grid, texts []string) error {
	var vs []T
	for _, s := range texts {
		v, err := c.read(s)
		if err != nil {
			return err
		}
		vs = append(vs, v)
	}
	*c.grid(g) = vs
	return nil
}

// Parse sets the axis's Grid column from the value of its `p2plab
// sweep` flag, a comma-separated list; the empty list leaves it unset.
func (a Axis) Parse(g *Grid, list string) error {
	var texts []string
	for _, f := range strings.Split(list, ",") {
		if f = strings.TrimSpace(f); f != "" {
			texts = append(texts, f)
		}
	}
	if err := a.col.parse(g, texts); err != nil {
		return fmt.Errorf("-%s: %w", a.Flag, err)
	}
	return nil
}

// Decode sets the axis's Grid column from the JSON list a serve sweep
// request carries under the axis's key. A string element is read as the
// flag reads it and any other by its literal text, so 4 and "4" are the
// same population and a model must be named, not numbered.
func (a Axis) Decode(g *Grid, raw json.RawMessage) error {
	var elems []json.RawMessage
	if err := json.Unmarshal(raw, &elems); err != nil {
		return fmt.Errorf("%q: want a list of values: %w", a.Key, err)
	}
	texts := make([]string, len(elems))
	for i, e := range elems {
		if json.Unmarshal(e, &texts[i]) != nil {
			texts[i] = string(e) + a.jsonUnit
		}
	}
	if err := a.col.parse(g, texts); err != nil {
		return fmt.Errorf("%q: %w", a.Key, err)
	}
	return nil
}
