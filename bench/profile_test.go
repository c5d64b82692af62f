package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// TestBucketing checks the attribution rules on hand-built stacks
// (leaf first).
func TestBucketing(t *testing.T) {
	ms := int64(time.Millisecond)
	samples := []stackSample{
		// Innermost layer frame wins: fmt under trace.Add, called from vnet, is trace's.
		{stack: []string{"fmt.(*pp).doPrintf", "fmt.Sprintf", "repro/internal/trace.(*Log).Add",
			"repro/internal/vnet.(*Network).transmit", "repro/internal/sim.(*Kernel).Run"}, ns: 10 * ms},
		// Allocation under the flow solver is flow's, GC assist included.
		{stack: []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/flow.(*Model).flush",
			"repro/internal/sim.(*Kernel).Run"}, ns: 20 * ms},
		// A helper package is transparent: the caller's layer pays.
		{stack: []string{"repro/internal/ip.Addr.String", "fmt.Sprintf", "repro/internal/trace.(*Log).Add",
			"repro/internal/bt.(*Client).loop"}, ns: 30 * ms},
		// … and lands in misc only when no layer called it.
		{stack: []string{"repro/internal/ip.ParsePrefix", "main.main"}, ns: 5 * ms},
		// Kernel handoff: sim frames ending in the runtime's park/ready/futex path.
		{stack: []string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm",
			"runtime.wakep", "runtime.ready", "runtime.goready", "runtime.send", "runtime.chansend",
			"repro/internal/sim.(*Kernel).wake"}, ns: 40 * ms},
		{stack: []string{"runtime.gopark", "runtime.chanrecv", "repro/internal/sim.(*Proc).park",
			"repro/internal/bt.(*Client).loop"}, ns: 50 * ms},
		// Plain kernel work is sim's but not handoff.
		{stack: []string{"repro/internal/sim.(*calQueue).pop", "repro/internal/sim.(*Kernel).Run"}, ns: 60 * ms},
		// No program frame: GC workers, the scheduler, and the rest.
		{stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker"}, ns: 70 * ms},
		{stack: []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
			"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, ns: 80 * ms},
		{stack: []string{"crypto/sha256.block", "main.(*run).goldenRun"}, ns: 90 * ms},
		// Sub-packages count as their parent.
		{stack: []string{"repro/internal/lint/analysis.Run"}, ns: 1 * ms},
	}
	got := bucketSamples(samples)
	want := map[string]float64{
		"trace.cpu_s":         0.040,
		"flow.cpu_s":          0.020,
		"misc.cpu_s":          0.006,
		"sim.cpu_s":           0.150,
		"sim.handoff_cpu_s":   0.090,
		"runtime.gc_cpu_s":    0.070,
		"runtime.sched_cpu_s": 0.080,
		"runtime.other_cpu_s": 0.090,
		"bench.profile_cpu_s": 0.456,
		"vnet.cpu_s":          0,
		"bt.cpu_s":            0,
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || math.Abs(g-w) > 1e-9 {
			t.Errorf("%s = %v (present %v), want %v", name, g, ok, w)
		}
	}
	// Every sample lands in exactly one bucket: the buckets, without
	// the handoff sub-bucket and the total, add up to the total.
	var sum float64
	for name, v := range got {
		if name != bucketHandoff && name != bucketTotal {
			sum += v
		}
	}
	if math.Abs(sum-got[bucketTotal]) > 1e-9 {
		t.Errorf("buckets sum to %v, profile total is %v", sum, got[bucketTotal])
	}
	// Every layer package has a row even when idle, so the metric set
	// does not depend on the workload.
	for pkg := range layerPackages {
		if _, ok := got[pkg+".cpu_s"]; !ok {
			t.Errorf("no bucket for idle layer %s", pkg)
		}
	}
}

var profileSink uint64

// TestParseRealProfile: the decoder reads what runtime/pprof writes —
// stacks that name this test's own busy loop, and CPU time.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := uint64(0); i < 1e6; i++ {
			profileSink = profileSink*6364136223846793005 + i
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.ns
		for _, fn := range s.stack {
			if fn == "repro/bench.TestParseRealProfile" {
				found = true
			}
		}
	}
	if total < int64(100*time.Millisecond) || !found {
		t.Errorf("%d samples, %v of CPU, busy loop found: %v", len(samples), time.Duration(total), found)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}
