package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/vnet"
)

// JobState is a job's lifecycle position.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobRequest is the submission body of POST /api/v1/jobs.
type JobRequest struct {
	// Kind selects the job type: "scenario" (the default) runs one
	// scenario to completion with live metric sampling; "sweep" runs a
	// parameter grid on the sweep worker pool with per-cell progress.
	Kind string `json:"kind,omitempty"`

	// Scenario jobs: exactly one of Scenario (a corpus name) or Spec
	// (an inline scenario spec, same JSON schema as `p2plab run -spec`).
	Scenario string         `json:"scenario,omitempty"`
	Spec     *scenario.Spec `json:"spec,omitempty"`
	// Seed overrides the spec's seed when non-zero.
	Seed int64 `json:"seed,omitempty"`
	// SampleInterval is the virtual-time distance between metric
	// snapshots ("30s", "2m"); the server default applies when unset.
	SampleInterval scenario.Duration `json:"sample_interval,omitempty"`

	// Sweep jobs.
	Sweep *SweepRequest `json:"sweep,omitempty"`
}

// SweepRequest is a sweep job's grid as JSON: the constants below, plus
// one list per sweep axis under the key its exp.Axes() row names. The
// axes are decoded through the rows, so every axis `p2plab sweep` has a
// flag for is reachable here by construction.
type SweepRequest struct {
	Experiment string            `json:"experiment"`
	FileSize   int               `json:"file_size,omitempty"`
	Lookups    int               `json:"lookups,omitempty"`
	Fanout     int               `json:"fanout,omitempty"`
	Horizon    scenario.Duration `json:"horizon,omitempty"`
	Workers    int               `json:"workers,omitempty"`

	axes exp.Grid // the axis columns only
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *SweepRequest) UnmarshalJSON(b []byte) error {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(b, &fields); err != nil {
		return err
	}
	for _, a := range exp.Axes() {
		raw, ok := fields[a.Key]
		if !ok {
			continue
		}
		if err := a.Decode(&r.axes, raw); err != nil {
			return err
		}
		delete(fields, a.Key)
	}
	// What is left must be constants. A misspelt axis key would
	// otherwise sweep defaults without a word; re-encoding sorts the
	// keys, so which bad key is named does not depend on map order.
	rest, err := json.Marshal(fields)
	if err != nil {
		return err
	}
	type constants SweepRequest // the fields, without this method
	dec := json.NewDecoder(bytes.NewReader(rest))
	dec.DisallowUnknownFields()
	return dec.Decode((*constants)(r))
}

// Event is one frame of a job's progress stream.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // state | progress | sample | result
	Data any    `json:"data,omitempty"`
}

// SamplePayload is the Data of a "sample" event: one virtual-time
// metric snapshot plus the wall-clock pacing figures the kernel itself
// must never see (they would break determinism inside the registry).
type SamplePayload struct {
	VirtualS float64 `json:"virtual_s"`
	WallMS   int64   `json:"wall_ms"` // wall time since the job started
	// EventsPerSec is kernel callbacks dispatched per wall-clock second
	// since the previous sample; VTWallRatio is virtual seconds
	// simulated per wall second over the same stretch.
	EventsPerSec float64       `json:"events_per_sec"`
	VTWallRatio  float64       `json:"vt_wall_ratio"`
	Metrics      *obs.Snapshot `json:"metrics"`
}

// ProgressPayload is the Data of a sweep job's "progress" event.
type ProgressPayload struct {
	Completed int    `json:"completed"`
	Total     int    `json:"total"`
	Cell      string `json:"cell"`
	Err       string `json:"err,omitempty"`
	WallMS    int64  `json:"wall_ms"`
}

// CellSummary is one sweep cell in a JobResult.
type CellSummary struct {
	Cell   string `json:"cell"`
	Err    string `json:"err,omitempty"`
	WallMS int64  `json:"wall_ms"`
}

// JobResult is the final payload of GET /api/v1/jobs/{id}/result.
type JobResult struct {
	Kind     string `json:"kind"`
	Scenario string `json:"scenario,omitempty"`
	WallMS   int64  `json:"wall_ms"`

	// Scenario jobs.
	EndedVirtualS float64            `json:"ended_virtual_s,omitempty"`
	Done          int                `json:"done,omitempty"`
	Total         int                `json:"total,omitempty"`
	Kernel        *sim.Stats         `json:"kernel,omitempty"`
	Net           *vnet.NetworkStats `json:"net,omitempty"`
	Labels        map[string]string  `json:"labels,omitempty"`
	Values        map[string]float64 `json:"values,omitempty"`
	Counters      map[string]uint64  `json:"counters,omitempty"`

	// Sweep jobs.
	Cells  []CellSummary `json:"cells,omitempty"`
	Failed int           `json:"failed,omitempty"`
}

// JobInfo is the list/inspect view of a job.
type JobInfo struct {
	ID       string     `json:"id"`
	Kind     string     `json:"kind"`
	Name     string     `json:"name"` // scenario or experiment name
	State    JobState   `json:"state"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// LastSample summarizes the latest snapshot (scenario jobs).
	LastVirtualS float64 `json:"last_virtual_s,omitempty"`
	Events       int     `json:"events"` // frames published so far
}

// Job is one queued, running or finished unit of work. Its mutable
// state is guarded by mu: the worker goroutine publishes, HTTP handler
// goroutines read and subscribe.
type Job struct {
	id   string
	req  JobRequest
	kind string
	name string

	mu       sync.Mutex
	state    JobState
	err      string
	created  time.Time
	started  time.Time
	finished time.Time

	seq      int
	events   []Event // bounded replay history (oldest dropped)
	firstSeq int     // seq of events[0]
	histMax  int
	subs     map[chan Event]struct{}
	done     chan struct{} // closed by finish; wait on it instead of polling state

	lastSample   *obs.Snapshot
	lastVirtualS float64

	result   *JobResult
	csvSnaps []*metrics.Snapshot
}

func newJob(id string, req JobRequest, histMax int) *Job {
	kind := req.Kind
	if kind == "" {
		kind = "scenario"
	}
	name := req.Scenario
	if req.Spec != nil {
		name = req.Spec.Name
	}
	if kind == "sweep" && req.Sweep != nil {
		name = req.Sweep.Experiment
	}
	if histMax <= 0 {
		histMax = 256
	}
	return &Job{
		id: id, req: req, kind: kind, name: name,
		state: JobQueued, created: time.Now(), histMax: histMax,
		subs: make(map[chan Event]struct{}),
		done: make(chan struct{}),
	}
}

// publish appends one event to the history and fans it out to live
// subscribers. A subscriber whose buffer is full loses the frame (the
// replay history still holds it while it stays within histMax).
func (j *Job) publish(typ string, data any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(typ, data)
}

func (j *Job) publishLocked(typ string, data any) {
	ev := Event{Seq: j.seq, Type: typ, Data: data}
	j.seq++
	j.events = append(j.events, ev)
	if len(j.events) > j.histMax {
		drop := len(j.events) - j.histMax
		j.events = append(j.events[:0:0], j.events[drop:]...)
		j.firstSeq += drop
	}
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// publishSample records a metric snapshot frame.
func (j *Job) publishSample(p SamplePayload) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lastSample = p.Metrics
	j.lastVirtualS = p.VirtualS
	j.publishLocked("sample", p)
}

// setRunning transitions queued -> running.
func (j *Job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = JobRunning
	j.started = time.Now()
	j.publishLocked("state", map[string]any{"state": j.state})
}

// finish transitions to done/failed, publishes the final frame, closes
// every subscriber channel (streams end at job completion) and closes
// the done channel. Finishing twice is a no-op.
func (j *Job) finish(res *JobResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobDone || j.state == JobFailed {
		return
	}
	defer close(j.done)
	j.finished = time.Now()
	if err != nil {
		j.state = JobFailed
		j.err = err.Error()
		j.publishLocked("state", map[string]any{"state": j.state, "error": j.err})
	} else {
		j.state = JobDone
		j.result = res
		j.publishLocked("result", res)
	}
	for ch := range j.subs {
		close(ch)
		delete(j.subs, ch)
	}
}

// subscribe returns the replay history and, for an unfinished job, a
// live channel (nil once finished — the history is complete) plus an
// unsubscribe function.
func (j *Job) subscribe() (history []Event, live chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history = append([]Event(nil), j.events...)
	if j.state == JobDone || j.state == JobFailed {
		return history, nil, func() {}
	}
	ch := make(chan Event, 256)
	j.subs[ch] = struct{}{}
	return history, ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// info snapshots the job's list/inspect view.
func (j *Job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	inf := JobInfo{
		ID: j.id, Kind: j.kind, Name: j.name, State: j.state,
		Error: j.err, Created: j.created,
		LastVirtualS: j.lastVirtualS, Events: j.seq,
	}
	if !j.started.IsZero() {
		t := j.started
		inf.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		inf.Finished = &t
	}
	return inf
}

// snapshotForMetrics returns the latest sample for /metrics exposure.
func (j *Job) snapshotForMetrics() *obs.Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSample
}

func (j *Job) stateNow() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *Job) resultNow() (*JobResult, []*metrics.Snapshot, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case JobDone:
		return j.result, j.csvSnaps, nil
	case JobFailed:
		return nil, nil, fmt.Errorf("job %s failed: %s", j.id, j.err)
	default:
		return nil, nil, fmt.Errorf("job %s not finished (state %s)", j.id, j.state)
	}
}
