package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, base string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func getJSON(t *testing.T, url string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d", url, resp.StatusCode, wantCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return out
}

// sseEvent is one decoded frame of an /events stream.
type sseEvent struct {
	Type string
	Data map[string]any
}

// streamEvents reads the SSE stream until the job reaches a terminal
// frame ("result" or a failed "state") or the deadline passes.
func streamEvents(t *testing.T, url string, deadline time.Duration) []sseEvent {
	t.Helper()
	client := &http.Client{Timeout: deadline}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var evs []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur = sseEvent{Type: strings.TrimPrefix(line, "event: ")}
		case strings.HasPrefix(line, "data: "):
			var frame struct {
				Type string         `json:"type"`
				Data map[string]any `json:"data"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &frame); err != nil {
				t.Fatalf("bad SSE data line: %v", err)
			}
			cur.Data = frame.Data
		case line == "":
			if cur.Type == "" {
				continue
			}
			evs = append(evs, cur)
			if cur.Type == "result" {
				return evs
			}
			if cur.Type == "state" {
				if st, _ := cur.Data["state"].(string); st == string(JobFailed) {
					return evs
				}
			}
			cur = sseEvent{}
		}
	}
	return evs
}

// TestServeScenarioEndToEnd is the serve-mode smoke test: submit the
// flash-crowd scenario over HTTP, stream its events to completion,
// and check the result, CSV and /metrics views.
func TestServeScenarioEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	code, sub := postJob(t, ts.URL, `{"scenario": "flash-crowd", "sample_interval": "30s"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %v", code, sub)
	}
	id, _ := sub["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", sub)
	}

	evs := streamEvents(t, ts.URL+"/api/v1/jobs/"+id+"/events", 120*time.Second)
	var samples, results int
	var lastSample map[string]any
	for _, ev := range evs {
		switch ev.Type {
		case "sample":
			samples++
			lastSample = ev.Data
		case "result":
			results++
		}
	}
	if results != 1 {
		t.Fatalf("stream ended without a result frame (%d events)", len(evs))
	}
	if samples == 0 {
		t.Fatal("no sample frames streamed")
	}
	// A sample carries the virtual timestamp and the live registry state.
	if v, _ := lastSample["virtual_s"].(float64); v <= 0 {
		t.Errorf("sample virtual_s = %v", lastSample["virtual_s"])
	}
	if lastSample["metrics"] == nil {
		t.Error("sample has no metrics snapshot")
	}

	// Inspect view.
	info := getJSON(t, ts.URL+"/api/v1/jobs/"+id, http.StatusOK)
	if info["state"] != string(JobDone) {
		t.Fatalf("job state = %v", info["state"])
	}
	list := getJSON(t, ts.URL+"/api/v1/jobs", http.StatusOK)
	if jobs, _ := list["jobs"].([]any); len(jobs) != 1 {
		t.Fatalf("list = %v", list)
	}

	// Result: the scenario ran and moved traffic.
	res := getJSON(t, ts.URL+"/api/v1/jobs/"+id+"/result", http.StatusOK)
	if res["scenario"] != "flash-crowd" {
		t.Errorf("result scenario = %v", res["scenario"])
	}
	if done, _ := res["done"].(float64); done <= 0 {
		t.Errorf("result done = %v", res["done"])
	}
	net, _ := res["net"].(map[string]any)
	if net == nil {
		t.Fatal("result has no net stats")
	}
	if sent, _ := net["MessagesSent"].(float64); sent <= 0 {
		t.Errorf("net.MessagesSent = %v", net["MessagesSent"])
	}

	// CSV export has a header plus at least one row.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/result.csv")
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	_, _ = csv.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(strings.Split(strings.TrimSpace(csv.String()), "\n")) < 2 {
		t.Errorf("csv = %d:\n%s", resp.StatusCode, csv.String())
	}

	// /metrics: server counters plus the job's final snapshot, tagged
	// with the job id, in Prometheus text format.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	_, _ = prom.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("metrics Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	text := prom.String()
	for _, want := range []string{
		"p2plab_server_jobs_submitted_total 1",
		"p2plab_server_jobs_completed_total 1",
		"# TYPE p2plab_net_messages_sent_total counter",
		`p2plab_net_messages_sent_total{job="` + id + `"} `,
		`p2plab_sim_events_total{job="` + id + `"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in /metrics:\n%s", want, text)
		}
	}

	// Health reflects the finished job.
	health := getJSON(t, ts.URL+"/health", http.StatusOK)
	if health["status"] != "ok" {
		t.Errorf("health = %v", health)
	}
	jobs, _ := health["jobs"].(map[string]any)
	if done, _ := jobs["done"].(float64); done != 1 {
		t.Errorf("health jobs = %v", jobs)
	}
}

// TestServeBoundedQueue fills the queue with jobs held by a blocking
// runner and checks that overflow submissions get 503 while every
// admitted job still runs to completion after release.
func TestServeBoundedQueue(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	firstRunning := make(chan struct{})
	var firstOnce sync.Once
	var ran sync.WaitGroup
	s.run = func(j *Job) {
		firstOnce.Do(func() { close(firstRunning) })
		<-release
		j.finish(&JobResult{Kind: j.kind}, nil)
		ran.Done()
	}

	// Worker capacity 1 + queue depth 2 = 3 admitted jobs; the 4th and
	// 5th submissions must bounce. The first submission may sit in the
	// queue briefly before the worker picks it up, so allow one retry
	// round for the expected 202 count.
	body := `{"scenario": "flash-crowd"}`
	accepted, rejected := 0, 0
	for i := 0; i < 5; i++ {
		code, out := postJob(t, ts.URL, body)
		switch code {
		case http.StatusAccepted:
			accepted++
			ran.Add(1)
		case http.StatusServiceUnavailable:
			if msg, _ := out["error"].(string); !strings.Contains(msg, "queue full") {
				t.Errorf("503 body = %v", out)
			}
			rejected++
		default:
			t.Fatalf("submit %d = %d", i, code)
		}
		if i == 0 {
			// Wait until the worker has dequeued the first job (it
			// parks in the blocking runner) so the admission
			// arithmetic below is deterministic.
			<-firstRunning
		}
	}
	if accepted != 3 || rejected != 2 {
		t.Fatalf("accepted %d rejected %d, want 3/2", accepted, rejected)
	}

	// Queue-full metrics and health agree.
	prom := getText(t, ts.URL+"/metrics")
	if !strings.Contains(prom, "p2plab_server_jobs_rejected_total 2") {
		t.Errorf("rejected counter missing:\n%s", prom)
	}

	close(release)
	// The runner calls finish before ran.Done, so after Wait returns
	// every admitted job's state is JobDone — no polling needed.
	ran.Wait()
	h := getJSON(t, ts.URL+"/health", http.StatusOK)
	jobs2, _ := h["jobs"].(map[string]any)
	if done, _ := jobs2["done"].(float64); done != 3 {
		t.Fatalf("health done = %v, want 3", done)
	}
}

// TestServeSweepJob runs a tiny sweep over HTTP and checks per-cell
// progress frames and the aggregate result.
func TestServeSweepJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, sub := postJob(t, ts.URL, `{
		"kind": "sweep",
		"sweep": {
			"experiment": "sched",
			"peers": [4, 8],
			"seeds": [1, 2],
			"workers": 2,
			"horizon": "10m"
		}
	}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %v", code, sub)
	}
	id := sub["id"].(string)

	evs := streamEvents(t, ts.URL+"/api/v1/jobs/"+id+"/events", 120*time.Second)
	progress := 0
	for _, ev := range evs {
		if ev.Type == "progress" {
			progress++
			if total, _ := ev.Data["total"].(float64); total != 4 {
				t.Errorf("progress total = %v", ev.Data["total"])
			}
		}
	}
	if progress != 4 {
		t.Fatalf("got %d progress frames, want 4", progress)
	}

	res := getJSON(t, ts.URL+"/api/v1/jobs/"+id+"/result", http.StatusOK)
	if cells, _ := res["cells"].([]any); len(cells) != 4 {
		t.Fatalf("result cells = %v", res["cells"])
	}
	if failed, _ := res["failed"].(float64); failed != 0 {
		t.Fatalf("failed cells: %v", res["failed"])
	}
}

// TestServeValidation covers the submission-time error paths.
func TestServeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var list []string
	for i := 2; i < 102; i++ {
		list = append(list, strconv.Itoa(i))
	}
	hundred := "[" + strings.Join(list, ",") + "]"
	cases := []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},                               // neither scenario nor spec
		{`{"scenario": "no-such-scenario"}`, http.StatusBadRequest}, // unknown corpus name
		{`{"kind": "sweep"}`, http.StatusBadRequest},                // sweep without grid
		{`{"kind": "sweep", "sweep": {"experiment": "bogus"}}`, http.StatusBadRequest},
		{`{"kind": "teleport"}`, http.StatusBadRequest},
		// Nothing churns in a ring: one value on an unread axis is refused.
		{`{"kind": "sweep", "sweep": {"experiment": "dht", "peers": [8], "churn": [0.3]}}`, http.StatusBadRequest},
		// Four 100-value axes ask for 10^8 cells in 2 kB.
		{`{"kind": "sweep", "sweep": {"experiment": "swarm", "peers": ` + hundred + `, "rules": ` + hundred +
			`, "windows": ` + hundred + `, "seeds": ` + hundred + `, "models": ["flow"]}}`, http.StatusBadRequest},
		// A misspelt axis key would sweep defaults.
		{`{"kind": "sweep", "sweep": {"experiment": "snapshot-sync", "piece_size": [262144]}}`, http.StatusBadRequest},
		// A body past the 1 MiB bound, however well-formed.
		{`{"scenario": "flash-crowd", "pad": "` + strings.Repeat("x", maxBodyBytes) + `"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, _ := postJob(t, ts.URL, c.body); code != c.want {
			t.Errorf("submit %q = %d, want %d", c.body, code, c.want)
		}
	}

	getJSON(t, ts.URL+"/api/v1/jobs/nope", http.StatusNotFound)
	getJSON(t, ts.URL+"/api/v1/jobs/nope/result", http.StatusNotFound)
}

// TestServeResultConflict checks that /result is a 409 until the job
// finishes.
func TestServeResultConflict(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	jobCh := make(chan *Job, 1)
	s.run = func(j *Job) {
		jobCh <- j
		<-release
		j.finish(&JobResult{Kind: j.kind}, nil)
	}
	code, sub := postJob(t, ts.URL, `{"scenario": "flash-crowd"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	id := sub["id"].(string)
	getJSON(t, ts.URL+"/api/v1/jobs/"+id+"/result", http.StatusConflict)
	j := <-jobCh
	close(release)
	<-j.done // finish closes it; no state polling
	h := getJSON(t, ts.URL+"/api/v1/jobs/"+id, http.StatusOK)
	if h["state"] != string(JobDone) {
		t.Fatalf("state = %v, want done", h["state"])
	}
	getJSON(t, ts.URL+"/api/v1/jobs/"+id+"/result", http.StatusOK)
}

// TestServeEvictsOldestFinishedJob: the job table keeps at most
// maxFinishedJobs finished jobs. Admitting one past the bound evicts
// the oldest finished job — its id answers 404 and /metrics stops
// listing it — while an older job that is still running stays.
func TestServeEvictsOldestFinishedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 2})
	reg := obs.NewRegistry()
	reg.Counter("p2plab_test_total", "A series for /metrics to list.").Inc()
	snap := reg.Snapshot()
	release := make(chan struct{})
	defer close(release)
	s.run = func(j *Job) {
		if j.id == "job-0001" {
			<-release // running for the whole test
		}
		j.mu.Lock()
		j.lastSample = snap
		j.mu.Unlock()
		j.finish(&JobResult{Kind: j.kind}, nil)
	}
	submit := func() string {
		t.Helper()
		code, sub := postJob(t, ts.URL, `{"scenario": "flash-crowd"}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit = %d: %v", code, sub)
		}
		return sub["id"].(string)
	}
	running := submit()
	var finished []string
	for i := 0; i <= maxFinishedJobs; i++ {
		id := submit()
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		<-j.done
		finished = append(finished, id)
	}
	// maxFinishedJobs+1 jobs are finished; the next admission trims one.
	submit()

	getJSON(t, ts.URL+"/api/v1/jobs/"+finished[0], http.StatusNotFound)
	getJSON(t, ts.URL+"/api/v1/jobs/"+finished[1], http.StatusOK)
	if st := getJSON(t, ts.URL+"/api/v1/jobs/"+running, http.StatusOK)["state"]; st != string(JobRunning) {
		t.Errorf("the oldest job is %v, want it kept running", st)
	}
	prom := getText(t, ts.URL+"/metrics")
	if strings.Contains(prom, `job="`+finished[0]+`"`) {
		t.Errorf("/metrics still lists evicted %s", finished[0])
	}
	if !strings.Contains(prom, `job="`+finished[1]+`"`) {
		t.Errorf("/metrics lost kept %s", finished[1])
	}
}

// TestServePanickingJobFails checks that a job whose simulated task
// panics ends as a failed job carrying the panic value, and that the
// worker it ran on takes the next job.
func TestServePanickingJobFails(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	s.run = func(j *Job) {
		k := sim.New(1)
		k.Go("bad", func(*sim.Proc) { panic("boom") })
		k.Run()
	}
	waitDone := func(id string) {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		<-j.done
	}
	_, sub := postJob(t, ts.URL, `{"scenario": "flash-crowd"}`)
	id := sub["id"].(string)
	waitDone(id)
	h := getJSON(t, ts.URL+"/api/v1/jobs/"+id, http.StatusOK)
	if msg, _ := h["error"].(string); h["state"] != string(JobFailed) || !strings.Contains(msg, "boom") {
		t.Fatalf("panicking job: state %v, error %q; want failed with the panic value", h["state"], msg)
	}

	s.run = func(j *Job) { j.finish(&JobResult{Kind: j.kind}, nil) }
	_, sub = postJob(t, ts.URL, `{"scenario": "flash-crowd"}`)
	id = sub["id"].(string)
	waitDone(id)
	if h := getJSON(t, ts.URL+"/api/v1/jobs/"+id, http.StatusOK); h["state"] != string(JobDone) {
		t.Fatalf("job after the panic: state %v, want done", h["state"])
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	_, _ = b.ReadFrom(resp.Body)
	return b.String()
}

// TestBuildGridReachesEveryAxis: a sweep submitted over HTTP must be
// able to say everything `p2plab sweep` can. The request decodes its
// axes through exp.Axes(), so each row set through its request key has
// to give the grid column the same row's flag gives, and the literal
// body below pins the wire names.
func TestBuildGridReachesEveryAxis(t *testing.T) {
	var req SweepRequest
	err := json.Unmarshal([]byte(`{
		"experiment": "snapshot-sync", "peers": [2], "churn": [0.1], "classes": ["dsl"],
		"models": ["flow"], "windows": ["50ms"], "scenarios": ["flash-crowd"],
		"rules": [10], "classifiers": ["indexed"], "piece_sizes": [262144],
		"conn_caps": [3], "rates": [65536], "seeds": [7],
		"file_size": 1048576, "lookups": 5, "fanout": 2, "horizon": "10m"
	}`), &req)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := buildGrid(&req)
	if err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(whole)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() && v.Field(i).IsZero() {
			t.Errorf("exp.Grid.%s is not reachable from a SweepRequest", f.Name)
		}
	}

	// One value per row: as the flag takes it, and as a JSON element.
	samples := map[string][2]string{
		"peers": {"2", `2`}, "churn": {"0.1", `0.1`}, "class": {"dsl", `"dsl"`}, "model": {"flow", `"flow"`},
		"window": {"50ms", `50000000`}, "scenario": {"flash-crowd", `"flash-crowd"`}, "rules": {"10", `10`},
		"classifier": {"indexed", `"indexed"`}, "piece": {"262144", `262144`}, "conncap": {"3", `3`},
		"rate": {"65536", `65536`}, "seed": {"7", `7`},
	}
	var byFlags exp.Grid
	for _, a := range exp.Axes() {
		sample, ok := samples[a.Label]
		if !ok {
			t.Fatalf("no sample value for axis %s: add one", a.Label)
		}
		var byFlag exp.Grid
		for _, g := range []*exp.Grid{&byFlag, &byFlags} {
			if err := a.Parse(g, sample[0]); err != nil {
				t.Fatal(err)
			}
		}
		if reflect.DeepEqual(byFlag, exp.Grid{}) {
			t.Errorf("-%s %s set no grid column", a.Flag, sample[0])
		}
		var req SweepRequest
		if err := json.Unmarshal([]byte(`{"`+a.Key+`": [`+sample[1]+`]}`), &req); err != nil {
			t.Fatal(err)
		}
		if byKey, _ := buildGrid(&req); !reflect.DeepEqual(byKey, byFlag) {
			t.Errorf("%q: [%s] decodes to %+v, -%s %s parses to %+v", a.Key, sample[1], byKey, a.Flag, sample[0], byFlag)
		}
	}
	// The rows, between them, are the body's axes.
	byFlags.Experiment, byFlags.FileSize, byFlags.Lookups, byFlags.Fanout, byFlags.Horizon =
		whole.Experiment, whole.FileSize, whole.Lookups, whole.Fanout, whole.Horizon
	if !reflect.DeepEqual(byFlags, whole) {
		t.Errorf("the literal body decodes to %+v, the rows' flags parse to %+v", whole, byFlags)
	}
}
