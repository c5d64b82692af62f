// Package scenario is the declarative experiment layer: a Spec
// composes a topology (node groups with access-link classes and
// inter-group latencies), a link model (pipe or flow), a workload
// (swarm, churn-swarm, snapshot, DHT, gossip, ping) and a timeline
// of scheduled network events — partitions and heals between node
// groups, runtime link-class changes (degrade/restore), loss bursts
// and interface flaps. Specs are plain Go values, JSON-loadable, and
// runnable by name from the committed corpus (see corpus.go, `p2plab
// run`). Run compiles a spec to a topology and assembles the platform
// with Assemble, which the drivers of what a spec cannot say call
// directly.
//
// This is the layer the paper's testbed reaches with hand-edited
// Dummynet configurations reloaded at run time; here the timeline is
// part of the experiment description itself, so a dynamic-network
// study is as reproducible as a static one.
package scenario

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/ip"
	"repro/internal/netem"
	"repro/internal/topo"
)

// Duration is a time.Duration that marshals to and from JSON as a
// human-readable string ("30s", "1h30m"); plain JSON numbers are
// accepted as nanoseconds.
type Duration time.Duration

// D returns the wrapped time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// String formats like time.Duration.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"30s\" or nanoseconds")
	}
	*d = Duration(n)
	return nil
}

// GroupSpec declares one node group: a named set of nodes sharing an
// access-link class, addressable as a unit by timeline events.
type GroupSpec struct {
	Name  string `json:"name"`
	Class string `json:"class"` // one of topo.Classes (dsl, modem, ...)
	Nodes int    `json:"nodes"`
	// Prefix optionally pins the group's address block; empty assigns
	// 10.<index+1>.0.0/16 automatically.
	Prefix string `json:"prefix,omitempty"`
}

// LatencySpec declares the one-way latency between two groups.
type LatencySpec struct {
	A      string   `json:"a"`
	B      string   `json:"b"`
	OneWay Duration `json:"one_way"`
}

// Workload kinds.
const (
	WorkloadSwarm      = "swarm"
	WorkloadChurnSwarm = "churn-swarm"
	WorkloadSnapshot   = "snapshot"
	WorkloadDHT        = "dht"
	WorkloadGossip     = "gossip"
	WorkloadPing       = "ping"
)

// workloadKind is one row of the kinds table: a workload kind, the
// fewest nodes it runs on and the function that starts it and sets
// r.finish to collect its results after the run.
type workloadKind struct {
	name     string
	minNodes int
	start    func(*runner) error
}

// kinds holds one row per workload kind. Validate rejects a kind that
// is not here; Run starts the spec's kind through its row.
var kinds = []workloadKind{
	{WorkloadSwarm, 2, (*runner).startSwarm}, // a seeder and a client
	{WorkloadChurnSwarm, 2, (*runner).startSwarm},
	{WorkloadSnapshot, 1, (*runner).startSwarm}, // web seeds can serve a lone client
	{WorkloadDHT, 2, (*runner).startDHT},
	{WorkloadGossip, 2, (*runner).startGossip},
	{WorkloadPing, 2, (*runner).startPing},
}

// kindOf returns the kinds row named k, or nil.
func kindOf(k string) *workloadKind {
	if i := slices.IndexFunc(kinds, func(r workloadKind) bool { return r.name == k }); i >= 0 {
		return &kinds[i]
	}
	return nil
}

// maxWebSeeds caps a snapshot workload's web-seed fleet; web seeds are
// admin-space CDN hosts, not swarm members, and a handful saturates any
// corpus-sized scenario.
const maxWebSeeds = 16

// WorkloadSpec selects and tunes the application driven over the
// scenario's network. Which kinds read a field, its default and its
// legal range are the field's row in workloadFields: a zero field takes
// the default, and a field the kind does not read must stay zero.
type WorkloadSpec struct {
	Kind string `json:"kind"` // a row of kinds: swarm | churn-swarm | snapshot | dht | gossip | ping

	FileSize      int64    `json:"file_size,omitempty"`      // bytes (snapshot defaults to 8 MiB)
	Seeders       int      `json:"seeders,omitempty"`        // seeding hosts (0 on snapshot only with web seeds)
	SeederGroup   string   `json:"seeder_group,omitempty"`   // group the seeders come from, default the first
	StartInterval Duration `json:"start_interval,omitempty"` // spacing of client arrivals

	ChurnFraction float64  `json:"churn_fraction,omitempty"` // share of clients that churn, in [0,1)
	Session       Duration `json:"session,omitempty"`        // mean up-time (Pareto scale)
	Downtime      Duration `json:"downtime,omitempty"`       // mean down-time (exponential)

	// The snapshot regime: few peers, a huge file, rate caps.
	PieceLength int   `json:"piece_length,omitempty"` // bytes
	ConnCap     int   `json:"conn_cap,omitempty"`     // per-client peer budget
	UpRate      int64 `json:"up_rate,omitempty"`      // bytes/s token-bucket cap, 0 unlimited
	DownRate    int64 `json:"down_rate,omitempty"`    // bytes/s token-bucket cap, 0 unlimited
	WebSeeds    int   `json:"web_seeds,omitempty"`    // admin-space block servers
	// The first seeder goes offline at SeedRestartAt and resumes, same
	// pieces, SeedRestartDown later (default 30s).
	SeedRestartAt   Duration `json:"seed_restart_at,omitempty"`
	SeedRestartDown Duration `json:"seed_restart_down,omitempty"`

	Lookups int `json:"lookups,omitempty"` // DHT lookups measured
	Fanout  int `json:"fanout,omitempty"`  // gossip push fanout
}

// wfield is one WorkloadSpec field's row: its JSON name, the kinds
// that read it, and the field with its default and legal range.
type wfield struct {
	name  string
	kinds []string
	knob  knob
}

var (
	swarmKinds    = []string{WorkloadSwarm, WorkloadChurnSwarm, WorkloadSnapshot}
	churnKinds    = []string{WorkloadChurnSwarm}
	snapshotKinds = []string{WorkloadSnapshot}
)

// workloadFields holds one row per WorkloadSpec field but Kind.
// WithDefaults fills from the rows and Validate checks against them. A
// set field the kind does not read is an error: silently ignoring it
// would run a different scenario than the author wrote. The cross-field
// rules (seeders against their group, the seed restart pair, snapshot's
// file size) stay code beside the walks.
var workloadFields = []wfield{
	{"file_size", swarmKinds, &val[int64]{field: func(w *WorkloadSpec) *int64 { return &w.FileSize }, def: 1 << 20, lo: 1}},
	{"seeders", swarmKinds, &val[int]{field: func(w *WorkloadSpec) *int { return &w.Seeders }}},
	{"seeder_group", swarmKinds, &val[string]{field: func(w *WorkloadSpec) *string { return &w.SeederGroup }}},
	{"start_interval", swarmKinds, &val[Duration]{field: func(w *WorkloadSpec) *Duration { return &w.StartInterval }, def: Duration(time.Second), lo: 1}},
	{"churn_fraction", churnKinds, &val[float64]{field: func(w *WorkloadSpec) *float64 { return &w.ChurnFraction }, def: 0.5, hi: 1}},
	{"session", churnKinds, &val[Duration]{field: func(w *WorkloadSpec) *Duration { return &w.Session }, def: Duration(120 * time.Second), lo: 1}},
	{"downtime", churnKinds, &val[Duration]{field: func(w *WorkloadSpec) *Duration { return &w.Downtime }, def: Duration(60 * time.Second), lo: 1}},
	{"piece_length", snapshotKinds, &val[int]{field: func(w *WorkloadSpec) *int { return &w.PieceLength }, def: 2 << 20, lo: 1}},
	{"conn_cap", snapshotKinds, &val[int]{field: func(w *WorkloadSpec) *int { return &w.ConnCap }, def: 5, lo: 1}},
	{"up_rate", snapshotKinds, &val[int64]{field: func(w *WorkloadSpec) *int64 { return &w.UpRate }}},
	{"down_rate", snapshotKinds, &val[int64]{field: func(w *WorkloadSpec) *int64 { return &w.DownRate }}},
	{"web_seeds", snapshotKinds, &val[int]{field: func(w *WorkloadSpec) *int { return &w.WebSeeds }, hi: maxWebSeeds + 1}},
	{"seed_restart_at", snapshotKinds, &val[Duration]{field: func(w *WorkloadSpec) *Duration { return &w.SeedRestartAt }}},
	{"seed_restart_down", snapshotKinds, &val[Duration]{field: func(w *WorkloadSpec) *Duration { return &w.SeedRestartDown }}},
	{"lookups", []string{WorkloadDHT}, &val[int]{field: func(w *WorkloadSpec) *int { return &w.Lookups }, def: 50, lo: 1}},
	{"fanout", []string{WorkloadGossip}, &val[int]{field: func(w *WorkloadSpec) *int { return &w.Fanout }, def: 3, lo: 1}},
}

// knob is a row's typed half, the value type erased.
type knob interface {
	set(w *WorkloadSpec) bool // the field is not zero
	fill(w *WorkloadSpec)
	check(w *WorkloadSpec) error
}

// val binds a row to its field. A legal value v has lo <= v and, unless
// hi is zero, v < hi. A non-zero def fills a zero field and, where zero
// is not legal, a negative one.
type val[T cmp.Ordered] struct {
	field       func(*WorkloadSpec) *T
	def, lo, hi T
}

func (k *val[T]) set(w *WorkloadSpec) bool { return *k.field(w) != *new(T) }

func (k *val[T]) fill(w *WorkloadSpec) {
	var zero T
	if v := k.field(w); k.def != zero && (*v == zero || *v < zero && k.lo > zero) {
		*v = k.def
	}
}

func (k *val[T]) check(w *WorkloadSpec) error {
	var zero T
	switch v := *k.field(w); {
	case k.hi != zero && (v < k.lo || v >= k.hi):
		return fmt.Errorf("%v outside [%v,%v)", v, k.lo, k.hi)
	case v < k.lo:
		return fmt.Errorf("%v below %v", v, k.lo)
	}
	return nil
}

// Timeline actions.
const (
	ActionPartition = "partition"   // split A-side groups from B-side groups
	ActionHeal      = "heal"        // remove the partition between A and B
	ActionSetClass  = "set-class"   // re-rate Groups' access links to Class
	ActionLoss      = "loss"        // loss burst on Groups' links for For
	ActionLinkDown  = "link-down"   // take Groups' interfaces down
	ActionLinkUp    = "link-up"     // bring Groups' interfaces back up
	ActionAddRule   = "add-rule"    // install firewall rule(s) (Src/Dst/Rule/ID/Copies)
	ActionDelRule   = "del-rule"    // remove every firewall rule with ID
	ActionDenyPfx   = "deny-prefix" // firewall Groups off (deny to and from), For auto-reverts
)

// actions lists the known timeline actions.
var actions = []string{ActionPartition, ActionHeal, ActionSetClass, ActionLoss,
	ActionLinkDown, ActionLinkUp, ActionAddRule, ActionDelRule, ActionDenyPfx}

// ruleActions lists the rule bodies an add-rule event may install.
var ruleActions = []string{"count", "deny", "allow"}

// MaxRuleCopies caps one add-rule event's filler batch, and the table
// padding a spec's filler_rules and a sweep's rules axis ask for.
const MaxRuleCopies = 100000

// EventSpec is one scheduled network event on the scenario timeline.
// Which actions read a field is the field's row in eventFields; a field
// the action does not read must stay zero.
type EventSpec struct {
	At     Duration `json:"at"`
	Action string   `json:"action"`

	A      []string `json:"a,omitempty"`      // one side of a partition, as group names
	B      []string `json:"b,omitempty"`      // the other side; a heal names the same (unordered) sides
	Groups []string `json:"groups,omitempty"` // the target groups
	Class  string   `json:"class,omitempty"`  // the new access-link class
	Loss   float64  `json:"loss,omitempty"`   // the burst drop probability in [0,1]

	// The rule's match sides — each a CIDR prefix or a group name
	// (resolved to the group's prefix); empty matches everything — and
	// its body ("count", "deny" or "allow").
	Src  string `json:"src,omitempty"`
	Dst  string `json:"dst,omitempty"`
	Rule string `json:"rule,omitempty"`
	// The IPFW rule number. del-rule requires it and removes every rule
	// carrying it. 0 on add-rule and deny-prefix auto-assigns the next
	// free number, which the author cannot know, so a permanent
	// deny-prefix (no `for`) must pin one for a del-rule to lift it.
	ID int `json:"id,omitempty"`
	// Install this many copies of the rule (a filler batch for
	// table-size studies, Fig 6). 0 means 1.
	Copies int `json:"copies,omitempty"`

	// For auto-reverts the event after this duration: a partition
	// heals, a loss burst restores the class loss rate, a downed link
	// comes back up, a deny-prefix lifts. Zero means permanent (until
	// a matching heal / link-up / set-class / del-rule event).
	// Required for loss.
	For Duration `json:"for,omitempty"`
}

// efield is one EventSpec field's row: its JSON name, the actions that
// read it, and whether an event sets it.
type efield struct {
	name    string
	actions []string
	set     func(*EventSpec) bool
	// list returns a group-list field: an action that reads it must name
	// at least one group, and only known ones.
	list func(*EventSpec) []string
}

var (
	sideActions  = []string{ActionPartition, ActionHeal}
	groupActions = []string{ActionSetClass, ActionLoss, ActionLinkDown, ActionLinkUp, ActionDenyPfx}
	addRule      = []string{ActionAddRule}
)

// eventFields holds one row per EventSpec field but At and Action.
// Validate rejects a set field the event's action does not read; what
// each action requires of the fields it reads stays code.
var eventFields = []efield{
	{"a", sideActions, func(e *EventSpec) bool { return len(e.A) > 0 }, func(e *EventSpec) []string { return e.A }},
	{"b", sideActions, func(e *EventSpec) bool { return len(e.B) > 0 }, func(e *EventSpec) []string { return e.B }},
	{"groups", groupActions, func(e *EventSpec) bool { return len(e.Groups) > 0 }, func(e *EventSpec) []string { return e.Groups }},
	{"class", []string{ActionSetClass}, func(e *EventSpec) bool { return e.Class != "" }, nil},
	{"loss", []string{ActionLoss}, func(e *EventSpec) bool { return e.Loss != 0 }, nil},
	{"src", addRule, func(e *EventSpec) bool { return e.Src != "" }, nil},
	{"dst", addRule, func(e *EventSpec) bool { return e.Dst != "" }, nil},
	{"rule", addRule, func(e *EventSpec) bool { return e.Rule != "" }, nil},
	{"id", []string{ActionAddRule, ActionDelRule, ActionDenyPfx}, func(e *EventSpec) bool { return e.ID != 0 }, nil},
	{"copies", addRule, func(e *EventSpec) bool { return e.Copies != 0 }, nil},
	// The other actions have no auto-revert: schedule the opposite event.
	{"for", []string{ActionPartition, ActionLoss, ActionLinkDown, ActionDenyPfx}, func(e *EventSpec) bool { return e.For != 0 }, nil},
}

// Spec is one complete declarative scenario.
type Spec struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Model       string   `json:"model,omitempty"` // pipe (default) | flow
	Seed        int64    `json:"seed,omitempty"`
	Horizon     Duration `json:"horizon,omitempty"` // default 1h virtual
	// FlowWindow batches the flow model's re-rate solves: churn events
	// within one window of virtual time drain in a single deterministic
	// solve per affected component (vnet.Config.FlowWindow). 0 keeps
	// the per-event solves the golden traces pin. Only valid with the
	// flow model — the pipe model has no solver to batch.
	FlowWindow Duration `json:"flow_window,omitempty"`
	// Classifier selects the firewall's classification algorithm
	// ("linear" or "indexed"). Setting it — or scheduling any rule
	// event on the timeline — gives the network a firewall table;
	// otherwise the run has none (vnet.Config.Rules == nil) and its
	// trace is byte-identical to pre-firewall builds.
	Classifier string `json:"classifier,omitempty"`
	// Folding hosts the scenario on a physical cluster (virt.Cluster)
	// at this many virtual nodes per physical node, placed in host
	// creation order — the paper's folding ratio (Figs 9–11). The
	// machine count is derived: ceil(total nodes / folding). 0 runs on
	// the bare topology, without the cluster layer.
	Folding int `json:"folding,omitempty"`
	// FillerRules pads the firewall table at assembly with this many
	// never-matching rules (netem.PadFiller): every message then pays
	// the classification cost, the Fig 6 artifact applied to a whole
	// workload. A positive count enables the firewall.
	FillerRules int           `json:"filler_rules,omitempty"`
	Groups      []GroupSpec   `json:"groups"`
	Latencies   []LatencySpec `json:"latencies,omitempty"`
	Workload    WorkloadSpec  `json:"workload"`
	Timeline    []EventSpec   `json:"timeline,omitempty"`
}

// FirewallEnabled reports whether the run carries a firewall table: an
// explicit classifier, filler rules or any rule event on the timeline
// enables it.
func (s *Spec) FirewallEnabled() bool {
	if s.Classifier != "" || s.FillerRules > 0 {
		return true
	}
	for _, ev := range s.Timeline {
		switch ev.Action {
		case ActionAddRule, ActionDelRule, ActionDenyPfx:
			return true
		}
	}
	return false
}

// Sanity bounds: scenarios describe emulation corpora, not arbitrary
// deployments; the caps keep a malformed (or fuzzed) spec from
// requesting an absurd build.
const (
	maxGroups = 64
	// MaxNodesPerGroup is exported for builders that split a large
	// population across same-class groups (exp.MegaswarmSpec).
	MaxNodesPerGroup = 8192
	maxTimeline      = 1024
)

// Load parses a JSON scenario spec. It never panics on malformed
// input; the returned spec is parsed but not yet validated.
func Load(data []byte) (*Spec, error) {
	var sp Spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return &sp, nil
}

// WithDefaults returns a copy with every zero-valued knob replaced by
// its documented default.
func (s *Spec) WithDefaults() *Spec {
	out := *s
	if out.Model == "" {
		out.Model = "pipe"
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Horizon <= 0 {
		out.Horizon = Duration(time.Hour)
	}
	w := &out.Workload
	if w.Kind == WorkloadSnapshot && w.FileSize <= 0 {
		w.FileSize = 8 << 20 // a scaled-down huge-file pull
	}
	for _, f := range workloadFields {
		if slices.Contains(f.kinds, w.Kind) {
			f.knob.fill(w)
		}
	}
	if !slices.Contains(swarmKinds, w.Kind) {
		return &out
	}
	// A snapshot workload with web seeds may legitimately run seederless
	// (the cold-CDN-fill case); everything else needs a seeder.
	if w.Seeders <= 0 && (w.Kind != WorkloadSnapshot || w.WebSeeds <= 0) {
		w.Seeders = 1
	}
	if w.SeederGroup == "" && len(out.Groups) > 0 {
		w.SeederGroup = out.Groups[0].Name
	}
	if w.SeedRestartAt > 0 && w.SeedRestartDown <= 0 {
		w.SeedRestartDown = Duration(30 * time.Second)
	}
	return &out
}

// Validate checks the spec for structural errors: unknown classes,
// groups or actions, out-of-range knobs, and every group and latency
// the topology build refuses (a malformed or overlapping prefix, one
// too small for its nodes). It is meant to be called on a defaulted
// spec (WithDefaults) and reports the first problem found.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	for _, r := range s.Name {
		ok := r == '-' || r == '_' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			// Names become identifiers and file names (the result CSV);
			// path separators and shell metacharacters stay out.
			return fmt.Errorf("scenario name %q: only letters, digits, '.', '_' and '-' allowed", s.Name)
		}
	}
	if len(s.Groups) == 0 {
		return fmt.Errorf("scenario %s: no groups", s.Name)
	}
	if len(s.Groups) > maxGroups {
		return fmt.Errorf("scenario %s: %d groups (max %d)", s.Name, len(s.Groups), maxGroups)
	}
	if _, err := netem.ParseModel(s.Model); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.Classifier != "" {
		if _, err := netem.ParseClassifier(s.Classifier); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if s.FillerRules < 0 || s.FillerRules > MaxRuleCopies {
		return fmt.Errorf("scenario %s: %d filler rules outside [0,%d]", s.Name, s.FillerRules, MaxRuleCopies)
	}
	if s.Folding < 0 {
		return fmt.Errorf("scenario %s: negative folding %d", s.Name, s.Folding)
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("scenario %s: horizon %v not positive", s.Name, s.Horizon)
	}
	if s.FlowWindow < 0 {
		return fmt.Errorf("scenario %s: negative flow window %v", s.Name, s.FlowWindow)
	}
	if s.FlowWindow > 0 && s.Model != "flow" {
		// Silently ignoring the knob would run a different scenario
		// than the author wrote — same policy as the other gated knobs.
		return fmt.Errorf("scenario %s: flow_window needs the flow model (got %q)", s.Name, s.Model)
	}
	groups := make(map[string]bool, len(s.Groups))
	for _, g := range s.Groups {
		if g.Name == "" {
			return fmt.Errorf("scenario %s: group with empty name", s.Name)
		}
		groups[g.Name] = true
		if _, ok := topo.ClassByName(g.Class); !ok {
			return fmt.Errorf("scenario %s: group %q: unknown class %q", s.Name, g.Name, g.Class)
		}
		if g.Nodes < 1 || g.Nodes > MaxNodesPerGroup {
			return fmt.Errorf("scenario %s: group %q: %d nodes outside [1,%d]", s.Name, g.Name, g.Nodes, MaxNodesPerGroup)
		}
	}
	// Duplicate names, prefixes and latencies: the build Run makes.
	t, err := s.topology()
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := s.validateWorkload(t); err != nil {
		return err
	}
	if len(s.Timeline) > maxTimeline {
		return fmt.Errorf("scenario %s: %d timeline events (max %d)", s.Name, len(s.Timeline), maxTimeline)
	}
	for i := range s.Timeline {
		if err := validateEvent(&s.Timeline[i], groups); err != nil {
			return fmt.Errorf("scenario %s: timeline[%d]: %w", s.Name, i, err)
		}
	}
	return nil
}

func (s *Spec) validateWorkload(t *topo.Topology) error {
	w := &s.Workload
	kind := kindOf(w.Kind)
	totalNodes := t.TotalNodes()
	switch {
	case w.Kind == "":
		return fmt.Errorf("scenario %s: missing workload kind", s.Name)
	case kind == nil:
		names := make([]string, len(kinds))
		for i, k := range kinds {
			names[i] = k.name
		}
		return fmt.Errorf("scenario %s: unknown workload kind %q (want %s)", s.Name, w.Kind, strings.Join(names, ", "))
	case totalNodes < kind.minNodes:
		return fmt.Errorf("scenario %s: %s needs at least %d nodes", s.Name, w.Kind, kind.minNodes)
	}
	for _, f := range workloadFields {
		if !slices.Contains(f.kinds, w.Kind) {
			if f.knob.set(w) {
				return fmt.Errorf("scenario %s: workload %s does not use %s", s.Name, w.Kind, f.name)
			}
		} else if err := f.knob.check(w); err != nil {
			return fmt.Errorf("scenario %s: %s %w", s.Name, f.name, err)
		}
	}
	if !slices.Contains(swarmKinds, w.Kind) {
		return nil
	}
	var seederGroup *GroupSpec
	for i := range s.Groups {
		if s.Groups[i].Name == w.SeederGroup {
			seederGroup = &s.Groups[i]
		}
	}
	if seederGroup == nil {
		return fmt.Errorf("scenario %s: unknown seeder group %q", s.Name, w.SeederGroup)
	}
	minSeeders := 1
	if w.WebSeeds > 0 {
		minSeeders = 0 // web seeds carry a seederless cold fill
	}
	if w.Seeders < minSeeders || w.Seeders > seederGroup.Nodes {
		return fmt.Errorf("scenario %s: %d seeders outside [%d,%d] (group %q)",
			s.Name, w.Seeders, minSeeders, seederGroup.Nodes, seederGroup.Name)
	}
	if totalNodes-w.Seeders < 1 {
		return fmt.Errorf("scenario %s: no clients left after %d seeders", s.Name, w.Seeders)
	}
	if w.SeedRestartAt > 0 && w.Seeders < 1 {
		return fmt.Errorf("scenario %s: seed_restart_at needs at least one seeder", s.Name)
	}
	if w.SeedRestartDown > 0 && w.SeedRestartAt == 0 {
		return fmt.Errorf("scenario %s: seed_restart_down without seed_restart_at", s.Name)
	}
	// The tracker and web seeds are hosts beside the groups: a group
	// holding one of their addresses would collide with it, or adopt
	// it into the group's link class and latencies.
	for i, a := range w.adminAddrs() {
		if g := t.Locate(a); g != nil {
			role := "tracker"
			if i > 0 {
				role = "web seed"
			}
			return fmt.Errorf("scenario %s: group %q: prefix %v holds the %s address %v", s.Name, g.Name, g.Prefix, role, a)
		}
	}
	return nil
}

func validateEvent(ev *EventSpec, groups map[string]bool) error {
	if ev.At < 0 {
		return fmt.Errorf("negative instant %v", ev.At)
	}
	if ev.For < 0 {
		return fmt.Errorf("negative duration %v", ev.For)
	}
	if !slices.Contains(actions, ev.Action) {
		return fmt.Errorf("unknown action %q (want %s)", ev.Action, strings.Join(actions, ", "))
	}
	for _, f := range eventFields {
		switch read := slices.Contains(f.actions, ev.Action); {
		case !read && f.set(ev):
			return fmt.Errorf("%s does not use %s", ev.Action, f.name)
		case read && f.list != nil:
			if !f.set(ev) {
				return fmt.Errorf("%s: no groups named in %s", ev.Action, f.name)
			}
			for _, g := range f.list(ev) {
				if !groups[g] {
					return fmt.Errorf("%s %s: unknown group %q", ev.Action, f.name, g)
				}
			}
		}
	}
	if ev.ID < 0 {
		return fmt.Errorf("%s: negative rule id %d", ev.Action, ev.ID)
	}
	switch ev.Action {
	case ActionPartition, ActionHeal:
		for _, a := range ev.A {
			for _, b := range ev.B {
				if a == b {
					return fmt.Errorf("group %q on both sides of the %s", a, ev.Action)
				}
			}
		}
	case ActionSetClass:
		if _, ok := topo.ClassByName(ev.Class); !ok {
			return fmt.Errorf("set-class: unknown class %q", ev.Class)
		}
	case ActionLoss:
		if ev.Loss < 0 || ev.Loss > 1 {
			return fmt.Errorf("loss %g outside [0,1]", ev.Loss)
		}
		if ev.For <= 0 {
			return fmt.Errorf("loss burst needs a positive duration (for)")
		}
	case ActionAddRule:
		if !slices.Contains(ruleActions, ev.Rule) {
			return fmt.Errorf("add-rule: unknown rule body %q (want %s)", ev.Rule, strings.Join(ruleActions, ", "))
		}
		for _, side := range []string{ev.Src, ev.Dst} {
			if side == "" || groups[side] {
				continue
			}
			if _, err := ip.ParsePrefix(side); err != nil {
				return fmt.Errorf("add-rule: %q is neither a group nor a prefix: %w", side, err)
			}
		}
		if ev.Copies < 0 || ev.Copies > MaxRuleCopies {
			return fmt.Errorf("add-rule: %d copies outside [0,%d]", ev.Copies, MaxRuleCopies)
		}
	case ActionDelRule:
		if ev.ID <= 0 {
			return fmt.Errorf("del-rule: needs a positive rule id")
		}
	case ActionDenyPfx:
		if ev.For == 0 && ev.ID == 0 {
			return fmt.Errorf("deny-prefix: a permanent deny (no for) needs a pinned id so a del-rule can lift it")
		}
	}
	return nil
}

// TotalNodes sums the spec's group populations.
func (s *Spec) TotalNodes() int {
	n := 0
	for _, g := range s.Groups {
		n += g.Nodes
	}
	return n
}
