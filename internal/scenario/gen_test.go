package scenario

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/topo"
)

// genSpec draws a random spec of 2 to maxNodes nodes that validates once
// defaulted. Its workload knobs and event fields come from the field
// tables: a field the kind or action reads is left zero (its default) or
// drawn legal by drawKnob or eventDraw, and a field it does not read is
// never set. The cross-field rules the rows do not hold — seeders
// against their group, the seed restart pair, partition sides, what an
// action requires — are met here.
func genSpec(rng *rand.Rand, maxNodes int) *Spec {
	kind := kinds[rng.Intn(len(kinds))].name
	total := 2 + rng.Intn(maxNodes-1)
	sp := &Spec{
		Name:    fmt.Sprintf("gen-%d", rng.Intn(1000000)),
		Seed:    rng.Int63n(100),
		Horizon: Duration(time.Duration(10+rng.Intn(111)) * time.Second),
		Groups:  make([]GroupSpec, 1+rng.Intn(min(3, total))),
	}
	classes := topo.Classes()
	for i := range sp.Groups {
		sp.Groups[i] = GroupSpec{Name: fmt.Sprintf("g%d", i), Class: classes[rng.Intn(len(classes))].Name, Nodes: 1}
	}
	for n := len(sp.Groups); n < total; n++ {
		sp.Groups[rng.Intn(len(sp.Groups))].Nodes++
	}
	if len(sp.Groups) > 1 && rng.Intn(2) == 0 {
		sp.Latencies = []LatencySpec{{A: "g0", B: "g1", OneWay: Duration(rng.Int63n(int64(100 * time.Millisecond)))}}
	}
	switch rng.Intn(3) {
	case 1:
		sp.Model = "pipe"
	case 2:
		sp.Model = "flow"
		sp.FlowWindow = Duration(rng.Int63n(int64(500 * time.Millisecond)))
	}
	sp.Classifier = []string{"", "linear", "indexed"}[rng.Intn(3)]
	if rng.Intn(3) == 0 {
		sp.FillerRules = rng.Intn(200)
	}
	if rng.Intn(3) == 0 {
		sp.Folding = 1 + rng.Intn(4)
	}

	w := &sp.Workload
	w.Kind = kind
	for _, f := range workloadFields {
		if slices.Contains(f.kinds, kind) && rng.Intn(2) == 0 {
			drawKnob(rng, sp, f)
		}
	}
	if slices.Contains(swarmKinds, kind) {
		if w.SeedRestartDown != 0 && w.SeedRestartAt == 0 {
			w.SeedRestartAt = w.SeedRestartDown
		}
		group := sp.Groups[0].Nodes
		for _, g := range sp.Groups {
			if g.Name == w.SeederGroup {
				group = g.Nodes
			}
		}
		if most := min(group, total-1); w.Seeders > most || w.Seeders == 0 && w.SeedRestartAt > 0 {
			w.Seeders = 1 + rng.Intn(most)
		}
	}

	for n := rng.Intn(5); n > 0; n-- {
		action := actions[rng.Intn(len(actions))]
		if len(sp.Groups) == 1 && slices.Contains(sideActions, action) {
			continue // a partition needs two groups
		}
		sp.Timeline = append(sp.Timeline, genEvent(rng, sp, action))
	}
	return sp
}

// genEvent draws a legal event of the action on sp's groups.
func genEvent(rng *rand.Rand, sp *Spec, action string) EventSpec {
	ev := EventSpec{At: Duration(rng.Int63n(int64(sp.Horizon))), Action: action}
	required := map[string]string{ActionSetClass: "class", ActionLoss: "for", ActionAddRule: "rule", ActionDelRule: "id"}
	for _, f := range eventFields {
		if slices.Contains(f.actions, action) && (f.list != nil || required[action] == f.name || rng.Intn(2) == 0) {
			eventDraw[f.name](rng, sp, &ev)
		}
	}
	if action == ActionDenyPfx && ev.For == 0 && ev.ID == 0 {
		eventDraw["id"](rng, sp, &ev)
	}
	return ev
}

// drawKnob sets the row's field to a non-zero value its row accepts.
func drawKnob(rng *rand.Rand, sp *Spec, f wfield) {
	w := &sp.Workload
	switch k := f.knob.(type) {
	case *val[int]:
		*k.field(w) = pick(rng, k, 4)
	case *val[int64]:
		*k.field(w) = pick(rng, k, 1<<20)
	case *val[float64]:
		*k.field(w) = pick(rng, k, 1)
	case *val[Duration]:
		*k.field(w) = pick(rng, k, Duration(time.Minute))
	case *val[string]: // the one text knob names a group
		*k.field(w) = sp.Groups[rng.Intn(len(sp.Groups))].Name
	default:
		panic(fmt.Sprintf("no draw for %s's knob type %T", f.name, f.knob))
	}
}

// pick draws a non-zero value in the row's range: [lo,hi) when it has
// an upper bound, else from a quarter to twice its default, else
// [lo,lo+span).
func pick[T ~int | ~int64 | ~float64](rng *rand.Rand, k *val[T], span T) T {
	lo, hi := k.lo, k.hi
	switch {
	case hi != 0: // the row's own range
	case k.def != 0:
		lo, hi = max(lo, k.def/4), 2*k.def
	default:
		hi = lo + span
	}
	for {
		if v := lo + T(rng.Float64()*float64(hi-lo)); v != 0 {
			return v
		}
	}
}

// eventDraw sets one EventSpec field, by row name, to a non-zero value
// legal for the actions that read it.
var eventDraw = map[string]func(rng *rand.Rand, sp *Spec, ev *EventSpec){
	"a": func(rng *rand.Rand, sp *Spec, ev *EventSpec) {
		// Leave at least one group for side b.
		ev.A = pickGroups(rng, sp.Groups[:max(1, len(sp.Groups)-1)], nil)
	},
	"b": func(rng *rand.Rand, sp *Spec, ev *EventSpec) { ev.B = pickGroups(rng, sp.Groups, ev.A) },
	"groups": func(rng *rand.Rand, sp *Spec, ev *EventSpec) {
		ev.Groups = pickGroups(rng, sp.Groups, nil)
	},
	"class": func(rng *rand.Rand, sp *Spec, ev *EventSpec) {
		classes := topo.Classes()
		ev.Class = classes[rng.Intn(len(classes))].Name
	},
	"loss": func(rng *rand.Rand, sp *Spec, ev *EventSpec) { ev.Loss = 0.05 + 0.95*rng.Float64() },
	"src":  func(rng *rand.Rand, sp *Spec, ev *EventSpec) { ev.Src = ruleSide(rng, sp) },
	"dst":  func(rng *rand.Rand, sp *Spec, ev *EventSpec) { ev.Dst = ruleSide(rng, sp) },
	"rule": func(rng *rand.Rand, sp *Spec, ev *EventSpec) {
		ev.Rule = ruleActions[rng.Intn(len(ruleActions))]
	},
	"id":     func(rng *rand.Rand, sp *Spec, ev *EventSpec) { ev.ID = 1 + rng.Intn(60000) },
	"copies": func(rng *rand.Rand, sp *Spec, ev *EventSpec) { ev.Copies = 1 + rng.Intn(50) },
	"for": func(rng *rand.Rand, sp *Spec, ev *EventSpec) {
		ev.For = Duration(time.Second + time.Duration(rng.Int63n(int64(time.Minute))))
	},
}

// pickGroups names a random non-empty subset of groups, avoiding the
// names in not when any group is left.
func pickGroups(rng *rand.Rand, groups []GroupSpec, not []string) []string {
	var pool []string
	for _, g := range groups {
		if !slices.Contains(not, g.Name) {
			pool = append(pool, g.Name)
		}
	}
	if len(pool) == 0 {
		pool = []string{groups[0].Name}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:1+rng.Intn(len(pool))]
}

// ruleSide is an add-rule match side: a group name or a prefix.
func ruleSide(rng *rand.Rand, sp *Spec) string {
	if rng.Intn(2) == 0 {
		return sp.Groups[rng.Intn(len(sp.Groups))].Name
	}
	return fmt.Sprintf("172.16.%d.0/24", rng.Intn(256))
}

// TestGeneratedSpecs: every generated spec validates and survives a
// JSON round trip; every (kind, field) and (action, field) pair of the
// tables is drawn; and the gating is complete — setting any field on a
// kind or action its row does not list fails Validate, naming both.
func TestGeneratedSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	drawn := map[string]bool{}
	byKind := map[string]*Spec{}
	for i := 0; i < 2000; i++ {
		sp := genSpec(rng, 24)
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.WithDefaults().Validate(); err != nil {
			t.Fatalf("draw %d: %v\n%s", i, err, data)
		}
		if back, err := Load(data); err != nil || !reflect.DeepEqual(sp, back) {
			t.Fatalf("draw %d: round trip: %v\nhave %+v\nwant %+v", i, err, back, sp)
		}
		w := &sp.Workload
		for _, f := range workloadFields {
			if f.knob.set(w) {
				drawn[w.Kind+"/"+f.name] = true
			}
		}
		for j := range sp.Timeline {
			for _, f := range eventFields {
				if f.set(&sp.Timeline[j]) {
					drawn[sp.Timeline[j].Action+"/"+f.name] = true
				}
			}
		}
		if len(sp.Groups) > 1 && byKind[w.Kind] == nil {
			byKind[w.Kind] = sp
		}
	}
	for _, f := range workloadFields {
		for _, k := range f.kinds {
			if !drawn[k+"/"+f.name] {
				t.Errorf("no draw set %s on a %s workload", f.name, k)
			}
		}
	}
	for _, f := range eventFields {
		if eventDraw[f.name] == nil {
			t.Fatalf("eventDraw has no entry for row %s", f.name)
		}
		for _, a := range f.actions {
			if !drawn[a+"/"+f.name] {
				t.Errorf("no draw set %s on a %s event", f.name, a)
			}
		}
	}

	reject := func(sp *Spec, want string) {
		t.Helper()
		if err := sp.WithDefaults().Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("got %v, want an error mentioning %q", err, want)
		}
	}
	for _, f := range workloadFields {
		for _, k := range kinds {
			if !slices.Contains(f.kinds, k.name) {
				sp := *byKind[k.name]
				drawKnob(rng, &sp, f)
				reject(&sp, fmt.Sprintf("workload %s does not use %s", k.name, f.name))
			}
		}
	}
	base := byKind[WorkloadGossip]
	for _, f := range eventFields {
		for _, a := range actions {
			if !slices.Contains(f.actions, a) {
				sp := *base
				ev := genEvent(rng, &sp, a)
				eventDraw[f.name](rng, &sp, &ev)
				sp.Timeline = []EventSpec{ev}
				reject(&sp, fmt.Sprintf("%s does not use %s", a, f.name))
			}
		}
	}
}

// TestGeneratedSpecsRunDeterministically is the first oracle on
// generated specs: one small spec of each workload kind, run twice with
// a trace, must render the same trace and count the same network.
func TestGeneratedSpecsRunDeterministically(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[string]bool{}
	for len(seen) < len(kinds) {
		sp := genSpec(rng, 12)
		if seen[sp.Workload.Kind] {
			continue
		}
		seen[sp.Workload.Kind] = true
		first, res, _ := traceDigest(t, *sp)
		again, res2, _ := traceDigest(t, *sp)
		if first != again || res.Net != res2.Net {
			t.Errorf("%s (%s) diverged: %s %+v vs %s %+v", sp.Name, sp.Workload.Kind, first, res.Net, again, res2.Net)
		}
		t.Logf("%s: %s on %d nodes, %d events: %d/%d done, ended %v, %d kernel events, %d sent",
			first[:12], sp.Workload.Kind, sp.TotalNodes(), len(sp.Timeline), res.Done, res.Total, res.EndedAt, res.Kernel.Events, res.Net.MessagesSent)
	}
}

// TestFieldTablesCoverStructs: the rows name every WorkloadSpec field
// but kind and every EventSpec field but at and action, in field order,
// so no field escapes the gating and the generator.
func TestFieldTablesCoverStructs(t *testing.T) {
	jsonNames := func(v any) []string {
		var out []string
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			out = append(out, name)
		}
		return out
	}
	var wrows, erows []string
	for _, f := range workloadFields {
		wrows = append(wrows, f.name)
	}
	for _, f := range eventFields {
		erows = append(erows, f.name)
	}
	if want := jsonNames(WorkloadSpec{})[1:]; !slices.Equal(wrows, want) {
		t.Errorf("workloadFields rows %v, want %v", wrows, want)
	}
	if want := jsonNames(EventSpec{})[2:]; !slices.Equal(erows, want) {
		t.Errorf("eventFields rows %v, want %v", erows, want)
	}
}
