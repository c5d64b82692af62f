// Package serve is the outside half of the observability layer: a
// long-running HTTP service that accepts scenario and sweep jobs into a
// bounded queue, runs them on a worker pool, streams per-cell progress
// and live virtual-time metric snapshots to subscribers, and exposes
// final results, CSV exports and a Prometheus /metrics endpoint.
//
// The boundary discipline: everything inside a kernel stays
// deterministic (the obs registry, sampled at virtual-time boundaries),
// and everything wall-clock flavored — request counters, events/sec,
// virtual-vs-wall ratios — lives out here, computed from snapshots
// after they cross the boundary.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Config tunes the service. Zero values take the documented defaults.
type Config struct {
	// QueueDepth bounds jobs waiting to run; submissions beyond it are
	// rejected with 503 (default 8).
	QueueDepth int
	// Workers is the number of jobs running concurrently (default 2).
	// Each sweep job additionally parallelizes internally via the sweep
	// engine's own pool.
	Workers int
	// SampleInterval is the default virtual-time distance between
	// metric snapshots for scenario jobs (default 10s of virtual time);
	// per-job requests may override it.
	SampleInterval time.Duration
	// HistoryLimit bounds each job's replayable event history
	// (default 256 frames; older frames are dropped).
	HistoryLimit int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = 10 * time.Second
	}
	if c.HistoryLimit <= 0 {
		c.HistoryLimit = 256
	}
	return c
}

// Server is the experiment service. Create with New, mount via Handler
// (it implements nothing else HTTP-specific, so httptest works
// directly), stop with Close.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	queue chan *Job
	quit  chan struct{}
	wg    sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []*Job
	nextID int
	// reg holds the server's own (wall-clock-side) metrics. The obs
	// registry is not thread-safe; every access happens under mu.
	reg       *obs.Registry
	submitted *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter

	start time.Time

	// run executes one job; replaced in tests to model slow jobs
	// without running kernels.
	run func(*Job)
}

// New creates a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		queue: make(chan *Job, cfg.QueueDepth),
		quit:  make(chan struct{}),
		jobs:  make(map[string]*Job),
		reg:   obs.NewRegistry(),
		start: time.Now(),
	}
	s.submitted = s.reg.Counter("p2plab_server_jobs_submitted_total", "Jobs accepted into the queue.")
	s.rejected = s.reg.Counter("p2plab_server_jobs_rejected_total", "Submissions rejected because the queue was full.")
	s.completed = s.reg.Counter("p2plab_server_jobs_completed_total", "Jobs finished successfully.")
	s.failed = s.reg.Counter("p2plab_server_jobs_failed_total", "Jobs that ended in an error.")
	s.reg.GaugeFunc("p2plab_server_queue_depth", "Jobs waiting in the bounded queue.", func() float64 {
		return float64(len(s.queue))
	})
	s.reg.GaugeFunc("p2plab_server_jobs_running", "Jobs currently executing.", func() float64 {
		running := 0
		for _, j := range s.order {
			if j.stateNow() == JobRunning {
				running++
			}
		}
		return float64(running)
	})
	s.run = s.execute
	s.mux = http.NewServeMux()
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the worker pool; queued jobs that have not started stay
// queued forever. Safe to call once.
func (s *Server) Close() {
	close(s.quit)
	s.wg.Wait()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			j.setRunning()
			s.runGuarded(j)
			s.mu.Lock()
			if j.stateNow() == JobFailed {
				s.failed.Inc()
			} else {
				s.completed.Inc()
			}
			s.mu.Unlock()
		}
	}
}

// runGuarded runs one job, converting a panic into that job's failure
// so one bad job cannot take down the server, as exp.RunSweep does per
// cell. A panic in a simulated task arrives here too: the kernel
// passes it on to Run's caller.
func (s *Server) runGuarded(j *Job) {
	defer func() {
		if r := recover(); r != nil {
			j.finish(nil, fmt.Errorf("job panicked: %v", r))
		}
	}()
	s.run(j)
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /health", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/result.csv", s.handleResultCSV)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// resolveSpec validates a scenario job request and returns its spec.
func resolveSpec(req JobRequest) (*scenario.Spec, error) {
	if (req.Scenario == "") == (req.Spec == nil) {
		return nil, fmt.Errorf("scenario job needs exactly one of \"scenario\" (corpus name) or \"spec\" (inline)")
	}
	var sp scenario.Spec
	if req.Spec != nil {
		sp = *req.Spec
	} else {
		var ok bool
		sp, ok = scenario.ByName(req.Scenario)
		if !ok {
			return nil, fmt.Errorf("unknown corpus scenario %q", req.Scenario)
		}
	}
	wd := sp.WithDefaults()
	if req.Seed != 0 {
		wd.Seed = req.Seed
	}
	if err := wd.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// buildGrid is the request's grid: the decoded axis columns under the
// request's constants.
func buildGrid(req *SweepRequest) (exp.Grid, error) {
	if req == nil {
		return exp.Grid{}, fmt.Errorf("sweep job needs a \"sweep\" object")
	}
	g := req.axes
	g.Experiment = exp.Experiment(req.Experiment)
	g.FileSize, g.Lookups, g.Fanout, g.Horizon = req.FileSize, req.Lookups, req.Fanout, req.Horizon.D()
	return g, nil
}

// maxBodyBytes bounds a submission body; the largest legitimate one,
// an inline spec with a long timeline, is a few kilobytes.
const maxBodyBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// Validate up front so a malformed job is a 400 at submission, not
	// an async failure discovered through the stream.
	switch req.Kind {
	case "", "scenario":
		if _, err := resolveSpec(req); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	case "sweep":
		g, err := buildGrid(req.Sweep)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if _, err := g.Cells(); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	default:
		writeError(w, http.StatusBadRequest, "unknown job kind %q", req.Kind)
		return
	}

	s.mu.Lock()
	s.nextID++
	j := newJob(fmt.Sprintf("job-%04d", s.nextID), req, s.cfg.HistoryLimit)
	// Reserve the queue slot while holding s.mu so the id sequence and
	// the queue admission decision stay consistent.
	select {
	case s.queue <- j:
		s.evictFinished()
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		s.submitted.Inc()
		s.mu.Unlock()
	default:
		s.nextID--
		s.rejected.Inc()
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "job queue full (%d deep); retry later", s.cfg.QueueDepth)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":    j.id,
		"state": JobQueued,
		"links": map[string]string{
			"self":   "/api/v1/jobs/" + j.id,
			"events": "/api/v1/jobs/" + j.id + "/events",
			"result": "/api/v1/jobs/" + j.id + "/result",
		},
	})
}

// maxFinishedJobs bounds how many finished jobs the server keeps for
// inspection; queued and running jobs are bounded by the queue and the
// worker pool.
const maxFinishedJobs = 64

// evictFinished drops the oldest finished jobs until at most
// maxFinishedJobs remain: their ids then answer 404 and /metrics stops
// listing them. A queued or running job is never evicted. Called with
// s.mu held, on admission, before the admitted job joins the table.
func (s *Server) evictFinished() {
	over := func(j *Job) bool { st := j.stateNow(); return st == JobDone || st == JobFailed }
	excess := -maxFinishedJobs
	for _, j := range s.order {
		if over(j) {
			excess++
		}
	}
	kept := s.order[:0]
	for _, j := range s.order {
		if excess > 0 && over(j) {
			excess--
			delete(s.jobs, j.id)
			continue
		}
		kept = append(kept, j)
	}
	clear(s.order[len(kept):])
	s.order = kept
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
	}
	return j
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := append([]*Job(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = j.info()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.info())
}

// handleEvents streams the job's frames as Server-Sent Events: the
// replayable history first, then live frames until the job finishes or
// the client disconnects. Each frame is `event: <type>` + `data:
// <JSON>`.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	history, live, cancel := j.subscribe()
	defer cancel()
	send := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, ev := range history {
		if !send(ev) {
			return
		}
	}
	if live == nil {
		return // finished job: history is the whole story
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-live:
			if !ok {
				return // job finished
			}
			if !send(ev) {
				return
			}
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	res, _, err := j.resultNow()
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleResultCSV(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	_, snaps, err := j.resultNow()
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	_ = metrics.WriteSnapshotsCSV(w, snaps)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	counts := map[JobState]int{}
	for _, j := range s.order {
		counts[j.stateNow()]++
	}
	depth, capacity := len(s.queue), cap(s.queue)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
		"queue":    map[string]int{"depth": depth, "capacity": capacity},
		"jobs": map[string]int{
			"queued": counts[JobQueued], "running": counts[JobRunning],
			"done": counts[JobDone], "failed": counts[JobFailed],
		},
	})
}

// handleMetrics renders the server's own counters plus the latest
// virtual-time snapshot of every job (tagged job="<id>") as Prometheus
// text. Job snapshots are merged family-by-family so a metric name
// appears exactly once, which is what the text format requires.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	server := s.reg.Snapshot()
	var groups []obs.Labeled
	for _, j := range s.order {
		if snap := j.snapshotForMetrics(); snap != nil {
			groups = append(groups, obs.Labeled{Value: j.id, Snap: snap})
		}
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = server.WriteProm(w)
	if len(groups) > 0 {
		_ = obs.Merge("job", groups).WriteProm(w)
	}
}

// execute runs one job to completion (the default Server.run).
func (s *Server) execute(j *Job) {
	var (
		res *JobResult
		err error
	)
	switch j.kind {
	case "sweep":
		res, err = s.executeSweep(j)
	default:
		res, err = s.executeScenario(j)
	}
	j.finish(res, err)
}

func (s *Server) executeScenario(j *Job) (*JobResult, error) {
	sp, err := resolveSpec(j.req)
	if err != nil {
		return nil, err
	}
	interval := j.req.SampleInterval.D()
	if interval <= 0 {
		interval = s.cfg.SampleInterval
	}
	reg := obs.NewRegistry()
	start := time.Now()
	prevWall := start
	var prevVirt, prevEvents float64
	opt := scenario.Options{
		Seed:           j.req.Seed,
		Obs:            reg,
		SampleInterval: interval,
		OnSample: func(at sim.Time, snap *obs.Snapshot) {
			now := time.Now()
			wall := now.Sub(prevWall).Seconds()
			events := snap.Total("p2plab_sim_events_total")
			p := SamplePayload{
				VirtualS: at.Seconds(),
				WallMS:   now.Sub(start).Milliseconds(),
				Metrics:  snap,
			}
			if wall > 0 {
				p.EventsPerSec = (events - prevEvents) / wall
				p.VTWallRatio = (at.Seconds() - prevVirt) / wall
			}
			prevWall, prevVirt, prevEvents = now, at.Seconds(), events
			j.publishSample(p)
		},
	}
	res, err := scenario.Run(sp, opt)
	if err != nil {
		return nil, err
	}
	kernel, net := res.Kernel, res.Net
	out := &JobResult{
		Kind:          "scenario",
		Scenario:      res.Spec.Name,
		WallMS:        time.Since(start).Milliseconds(),
		EndedVirtualS: res.EndedAt.Seconds(),
		Done:          res.Done,
		Total:         res.Total,
		Kernel:        &kernel,
		Net:           &net,
		Labels:        res.Snapshot.Labels,
		Values:        res.Snapshot.Values,
		Counters:      res.Snapshot.Counters,
	}
	j.mu.Lock()
	j.csvSnaps = []*metrics.Snapshot{res.Snapshot}
	// Publish the final registry state so /metrics reflects the
	// completed run even when the horizon fell between samples.
	j.lastSample = reg.Snapshot()
	j.lastVirtualS = res.EndedAt.Seconds()
	j.mu.Unlock()
	return out, nil
}

func (s *Server) executeSweep(j *Job) (*JobResult, error) {
	g, err := buildGrid(j.req.Sweep)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := exp.RunSweepProgress(g, j.req.Sweep.Workers, func(completed, total int, c exp.CellResult) {
		p := ProgressPayload{
			Completed: completed, Total: total,
			Cell: c.Cell.String(), WallMS: c.Wall.Milliseconds(),
		}
		if c.Err != nil {
			p.Err = c.Err.Error()
		}
		j.publish("progress", p)
	})
	if err != nil {
		return nil, err
	}
	out := &JobResult{
		Kind:   "sweep",
		WallMS: time.Since(start).Milliseconds(),
		Failed: res.Failed,
	}
	for _, c := range res.Cells {
		cs := CellSummary{Cell: c.Cell.String(), WallMS: c.Wall.Milliseconds()}
		if c.Err != nil {
			cs.Err = c.Err.Error()
		}
		out.Cells = append(out.Cells, cs)
	}
	j.mu.Lock()
	j.csvSnaps = res.Snapshots()
	j.mu.Unlock()
	return out, nil
}
