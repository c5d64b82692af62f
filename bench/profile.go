package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile says where host time went without touching the
// program: every sample is charged to the innermost repro/internal/<pkg>
// frame on its stack, so fmt.Sprintf under trace.(*Log).Add is trace's
// and mallocgc under flow.(*Model).flush is flow's. The decoder below
// reads just enough of the pprof protobuf (profile.proto) for that —
// stacks of function names and the CPU value of each sample — because
// the toolchain's own parser is not importable.

// stackSample is one profile sample: function names leaf first, and
// the CPU time it stands for.
type stackSample struct {
	stack []string
	ns    int64
}

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// protoField is one decoded field: a varint or a length-delimited
// payload, by wire type.
type protoField struct {
	num   int
	wire  int
	varnt uint64
	bytes []byte
}

var errTruncated = errors.New("truncated protobuf")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// eachField calls fn for every field of one message.
func eachField(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.varnt, rest, err = readVarint(rest); err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errTruncated
			}
			rest = rest[8:]
		case 2:
			n, r, err := readVarint(rest)
			if err != nil {
				return err
			}
			if uint64(len(r)) < n {
				return errTruncated
			}
			f.bytes, rest = r[:n], r[n:]
		case 5:
			if len(rest) < 4 {
				return errTruncated
			}
			rest = rest[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// repeatedVarints reads a repeated integer field, packed or not.
func repeatedVarints(f protoField, into []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.varnt), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// parseProfile decodes a gzipped pprof CPU profile into stacks. The
// sample's last value is its CPU time in nanoseconds (the runtime
// writes samples/count first, cpu/nanoseconds second).
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs []uint64
		ns   int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case profStringTable:
			strs = append(strs, string(f.bytes))
		case profSample:
			var s rawSample
			var values []uint64
			err := eachField(f.bytes, func(sf protoField) error {
				var err error
				switch sf.num {
				case sampleLocationID:
					s.locs, err = repeatedVarints(sf, s.locs)
				case sampleValue:
					values, err = repeatedVarints(sf, values)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.ns = int64(values[len(values)-1])
			}
			samples = append(samples, s)
		case profLocation:
			var id uint64
			var funcs []uint64
			err := eachField(f.bytes, func(lf protoField) error {
				switch lf.num {
				case locationID:
					id = lf.varnt
				case locationLine:
					// Inlined calls give a location several lines,
					// innermost first.
					return eachField(lf.bytes, func(ln protoField) error {
						if ln.num == lineFunctionID {
							funcs = append(funcs, ln.varnt)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = funcs
		case profFunction:
			var id, name uint64
			err := eachField(f.bytes, func(ff protoField) error {
				switch ff.num {
				case functionID:
					id = ff.varnt
				case functionName:
					name = ff.varnt
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, len(samples))
	for i, s := range samples {
		out[i].ns = s.ns
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("function %d: string index %d out of range", fn, idx)
				}
				out[i].stack = append(out[i].stack, strs[idx])
			}
		}
	}
	return out, nil
}

// Buckets for samples with no frame of the program on the stack.
const (
	bucketGC    = "runtime.gc_cpu_s"    // background mark, sweep and scavenge workers
	bucketSched = "runtime.sched_cpu_s" // the Go scheduler finding, parking and waking threads
	bucketOther = "runtime.other_cpu_s" // the rest: runtime start-up, the harness's own digest and JSON work
	bucketMisc  = "misc.cpu_s"          // helper packages (ip, topo, metrics, …) called from outside any layer

	bucketHandoff = "sim.handoff_cpu_s" // part of sim.cpu_s: leaf is a runtime park/ready/chan/futex function
	bucketTotal   = "bench.profile_cpu_s"
)

// layerPackages are the packages under internal/ that have per-layer
// metrics; the others are helpers, charged to the layer that called
// them.
var layerPackages = map[string]bool{
	"sim": true, "vnet": true, "netem": true, "flow": true, "bt": true, "trace": true,
	"obs": true, "scenario": true, "exp": true, "chord": true, "gossip": true, "churn": true,
}

const internalPrefix = "repro/internal/"

// repoPackage returns the package under internal/ a function belongs
// to: "flow" for repro/internal/flow.(*Model).flush, and sub-packages
// count as their parent.
func repoPackage(fn string) (string, bool) {
	if !strings.HasPrefix(fn, internalPrefix) {
		return "", false
	}
	rest := fn[len(internalPrefix):]
	if i := strings.IndexAny(rest, "./"); i > 0 {
		return rest[:i], true
	}
	return "", false
}

// gcRoots and schedFuncs classify stacks that never entered the
// program. A GC worker's stack contains one of gcRoots; the scheduler
// runs on the g0 stack under mcall/mstart with one of schedFuncs.
var (
	gcRoots    = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart"}
	schedFuncs = []string{"runtime.schedule", "runtime.findRunnable", "runtime.stopm", "runtime.startm",
		"runtime.park_m", "runtime.goexit0", "runtime.wakep", "runtime.resetspinning", "runtime.mPark",
		"runtime.futexsleep", "runtime.futexwakeup", "runtime.notesleep", "runtime.notewakeup", "runtime.futex"}
)

// handoffLeaves are prefixes of the runtime functions a goroutine
// handoff ends in while still on the task's own stack: channel
// operations, parking, readying, waking a thread, and the futex and
// runtime locks under them.
var handoffLeaves = []string{"runtime.chan", "runtime.send", "runtime.recv", "runtime.gopark", "runtime.goready",
	"runtime.ready", "runtime.futex", "runtime.wakep", "runtime.startm", "runtime.notewakeup", "runtime.runqput",
	"runtime.acquireSudog", "runtime.releaseSudog", "runtime.lock2", "runtime.unlock2", "runtime.casgstatus",
	"runtime.osyield", "runtime.procyield"}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func stackHasAny(stack []string, names []string) bool {
	for _, fn := range stack {
		if hasAnyPrefix(fn, names) {
			return true
		}
	}
	return false
}

// bucketOf names the bucket one sample is charged to, and whether it
// also counts as kernel handoff. Helper packages without a row of
// their own are transparent: ip.Addr.String under trace.(*Log).Add is
// trace's, topo's latency walk under vnet's transmit is vnet's.
func bucketOf(stack []string) (bucket string, handoff bool) {
	helper := false
	for _, fn := range stack { // leaf first: the first layer frame is the innermost
		pkg, ok := repoPackage(fn)
		if !ok {
			continue
		}
		if !layerPackages[pkg] {
			helper = true
			continue
		}
		return pkg + ".cpu_s", pkg == "sim" && hasAnyPrefix(stack[0], handoffLeaves)
	}
	switch {
	case helper:
		return bucketMisc, false
	case stackHasAny(stack, gcRoots):
		return bucketGC, false
	case stackHasAny(stack, schedFuncs):
		return bucketSched, false
	}
	return bucketOther, false
}

// bucketSamples charges every sample to exactly one bucket, in
// seconds; the buckets other than sim.handoff_cpu_s (a part of
// sim.cpu_s) and the total add up to the total.
func bucketSamples(samples []stackSample) map[string]float64 {
	out := map[string]float64{bucketGC: 0, bucketSched: 0, bucketOther: 0, bucketMisc: 0, bucketHandoff: 0, bucketTotal: 0}
	for pkg := range layerPackages {
		out[pkg+".cpu_s"] = 0
	}
	for _, s := range samples {
		sec := float64(s.ns) / 1e9
		bucket, handoff := bucketOf(s.stack)
		out[bucket] += sec
		if handoff {
			out[bucketHandoff] += sec
		}
		out[bucketTotal] += sec
	}
	return out
}

func profileBuckets(data []byte) (map[string]float64, error) {
	samples, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	return bucketSamples(samples), nil
}
