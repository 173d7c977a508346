package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Scheduler, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestHTTPSolveSync(t *testing.T) {
	_, srv := newTestServer(t, Config{Slots: 4})
	req := map[string]any{"problem": "costas", "size": 8, "walkers": 2, "seed": 3, "wait": true}
	resp, body := postJSON(t, srv.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.State != StateSolved || job.Result == nil || !job.Result.Solved {
		t.Fatalf("sync solve: %+v", job)
	}
	if len(job.Result.Solution) != 8 {
		t.Fatalf("solution length %d, want 8", len(job.Result.Solution))
	}
}

func TestHTTPSolveAsyncAndPoll(t *testing.T) {
	_, srv := newTestServer(t, Config{Slots: 4})
	resp, body := postJSON(t, srv.URL+"/v1/solve", map[string]any{"problem": "costas", "size": 8, "seed": 5})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.State != StateQueued {
		t.Fatalf("async ack: %+v", job)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Fatalf("Location = %q", loc)
	}

	// One long-poll GET awaits it: no polling loop.
	var final Job
	if resp := getJSON(t, srv.URL+"/v1/jobs/"+job.ID+"?wait=10s", &final); resp.StatusCode != http.StatusOK {
		t.Fatalf("long-poll status %d", resp.StatusCode)
	}
	if final.State != StateSolved || final.Result == nil || !final.Result.Solved {
		t.Fatalf("long-poll answered %s: %+v", final.State, final)
	}
}

// TestHTTPLongPollTerminalJob: a job that already finished is answered
// by a single GET, wait or no wait, with the same record.
func TestHTTPLongPollTerminalJob(t *testing.T) {
	s, srv := newTestServer(t, Config{Slots: 2})
	done, err := s.SubmitWait(nil, fastReq())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"?wait=10s", "?wait=0", ""} {
		var got Job
		if resp := getJSON(t, srv.URL+"/v1/jobs/"+done.ID+q, &got); resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d", q, resp.StatusCode)
		}
		if got.State != StateSolved || got.Result == nil || got.Result.Winner != done.Result.Winner ||
			!got.FinishedAt.Equal(done.FinishedAt) {
			t.Fatalf("%q: got %+v, want the record SubmitWait returned (%+v)", q, got, done)
		}
	}
}

// TestHTTPLongPollExpires: a wait that runs out on a job still in
// flight is an ordinary 200 with a non-terminal state — the client asks
// again — and the job is untouched by it.
func TestHTTPLongPollExpires(t *testing.T) {
	s, srv := newTestServer(t, Config{Slots: 1})
	job, err := s.Submit(hardReq(60_000))
	if err != nil {
		t.Fatal(err)
	}
	var got Job
	if resp := getJSON(t, srv.URL+"/v1/jobs/"+job.ID+"?wait=20ms", &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.ID != job.ID || got.State.Terminal() {
		t.Fatalf("expired wait answered %+v, want job %s non-terminal", got, job.ID)
	}
	if cur, err := s.Get(job.ID); err != nil || cur.State.Terminal() {
		t.Fatalf("job after the expired wait: %+v, %v", cur, err)
	}
}

// TestHTTPLongPollRejections: an unknown id is an immediate 404 however
// long the wait, and a wait that is not a non-negative duration is a 400
// wrapping ErrBadRequest, for a known and an unknown job alike.
func TestHTTPLongPollRejections(t *testing.T) {
	s, srv := newTestServer(t, Config{Slots: 1})
	t0 := time.Now()
	if resp := getJSON(t, srv.URL+"/v1/jobs/j999999?wait=10s", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", resp.StatusCode)
	}
	if took := time.Since(t0); took > 5*time.Second {
		t.Fatalf("unknown id held the request %v", took)
	}

	job, err := s.Submit(hardReq(60_000))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{job.ID, "j999999"} {
		for _, wait := range []string{"", "soon", "5", "-1s"} {
			var e map[string]string
			resp := getJSON(t, srv.URL+"/v1/jobs/"+id+"?wait="+wait, &e)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e["error"], ErrBadRequest.Error()) {
				t.Errorf("%s wait=%q: status %d error %q, want 400 wrapping ErrBadRequest", id, wait, resp.StatusCode, e["error"])
			}
		}
	}
	for _, wait := range []string{"", "soon", "-1s"} {
		if _, err := jobWait(wait); !errors.Is(err, ErrBadRequest) {
			t.Errorf("jobWait(%q) = %v, want ErrBadRequest", wait, err)
		}
	}
}

// TestHTTPLongPollClampsWait: a wait above the cap is served with the
// cap, not rejected.
func TestHTTPLongPollClampsWait(t *testing.T) {
	for raw, want := range map[string]time.Duration{
		"0": 0, "250ms": 250 * time.Millisecond, "10s": maxJobWait, "1h": maxJobWait, "2562047h": maxJobWait,
	} {
		if d, err := jobWait(raw); err != nil || d != want {
			t.Errorf("jobWait(%q) = %v, %v; want %v", raw, d, err, want)
		}
	}
	if maxJobWait >= 15*time.Second {
		t.Errorf("maxJobWait = %v must stay below cmd/serve's 15 s drain budget", maxJobWait)
	}

	// Over HTTP: the hour-long wait is accepted, and answers as soon as
	// the job is cancelled.
	s := newTestScheduler(t, Config{Slots: 1})
	job, err := s.Submit(hardReq(60_000))
	if err != nil {
		t.Fatal(err)
	}
	outcomes, _ := longPollers(context.Background(), t, s, job.ID, "1h", 1)
	if _, err := s.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	if o := <-outcomes; o.err != nil || o.status != http.StatusOK || o.job.State != StateCancelled {
		t.Fatalf("wait=1h answered %+v, want 200 and the cancelled record", o)
	}
}

// pollOutcome is what one long-poll of longPollers came back with.
type pollOutcome struct {
	status int
	job    Job
	err    error
}

// longPollers parks n long-polls (?wait=wait) on one job, behind a
// handler that reports each one's entry and exit, and returns once all n
// are inside it. Each poll's outcome arrives on outcomes.
func longPollers(ctx context.Context, t *testing.T, s *Scheduler, id, wait string, n int) (outcomes <-chan pollOutcome, exited <-chan struct{}) {
	t.Helper()
	h := NewHandler(s)
	entry, exit := make(chan struct{}, n), make(chan struct{}, n)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entry <- struct{}{}
		defer func() { exit <- struct{}{} }()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	// A transport of its own, so the connections these requests open (and
	// the goroutines that serve them) are gone when the test says so.
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	client := &http.Client{Transport: tr}
	out := make(chan pollOutcome, n)
	for i := 0; i < n; i++ {
		go func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/"+id+"?wait="+wait, nil)
			if err != nil {
				out <- pollOutcome{err: err}
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				out <- pollOutcome{err: err}
				return
			}
			defer resp.Body.Close()
			o := pollOutcome{status: resp.StatusCode}
			o.err = json.NewDecoder(resp.Body).Decode(&o.job)
			out <- o
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case <-entry:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d long-polls reached the handler", i, n)
		}
	}
	return out, exit
}

// TestHTTPLongPollClientDisconnect: a client that goes away releases its
// handler at once — nothing waits out the 10 s — and the goroutines the
// request held are gone with it.
func TestHTTPLongPollClientDisconnect(t *testing.T) {
	s := newTestScheduler(t, Config{Slots: 1})
	// The baseline is the idle scheduler. The job's own goroutines go
	// when it is cancelled below; what the polls add on top — the server,
	// its connections, the handlers — must go when the clients do.
	base := runtime.NumGoroutine()
	job, err := s.Submit(hardReq(60_000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, hangUp := context.WithCancel(context.Background())
	const n = 4
	outcomes, exited := longPollers(ctx, t, s, job.ID, "10s", n)
	if during := runtime.NumGoroutine(); during < base+n {
		t.Fatalf("%d goroutines with %d long-polls parked over a baseline of %d", during, n, base)
	}
	t0 := time.Now()
	hangUp()
	for i := 0; i < n; i++ {
		if o := <-outcomes; !errors.Is(o.err, context.Canceled) {
			t.Fatalf("cancelled request returned %+v", o)
		}
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			t.Fatalf("handler %d still parked %v after its client left", i, time.Since(t0))
		}
	}
	if cur, err := s.Get(job.ID); err != nil || cur.State.Terminal() {
		t.Fatalf("a client hanging up must not touch the job: %+v, %v", cur, err)
	}
	if _, err := s.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), job.ID); err != nil {
		t.Fatal(err)
	}
	// The listener's accept loop is the one goroutine the server keeps
	// until the test's cleanup closes it.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base+1; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after every client left, baseline %d (+1 listener)", runtime.NumGoroutine(), base)
		}
	}
}

// TestHTTPLongPollReleasedByClose: Scheduler.Close finalizes every job,
// so every pending long-poll answers — with the cancelled record — and
// none is left to hold the listener's drain.
func TestHTTPLongPollReleasedByClose(t *testing.T) {
	s := newTestScheduler(t, Config{Slots: 1})
	running, err := s.Submit(hardReq(60_000))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(hardReq(60_000))
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	onRunning, _ := longPollers(context.Background(), t, s, running.ID, "10s", n)
	onQueued, _ := longPollers(context.Background(), t, s, queued.ID, "10s", n)
	t0 := time.Now()
	s.Close()
	for _, ch := range []<-chan pollOutcome{onRunning, onQueued} {
		for i := 0; i < n; i++ {
			o := <-ch
			if o.err != nil || o.status != http.StatusOK || o.job.State != StateCancelled {
				t.Fatalf("long-poll released by Close answered %+v, want 200 and the cancelled record", o)
			}
		}
	}
	if took := time.Since(t0); took > 5*time.Second {
		t.Fatalf("Close took %v to release the long-polls", took)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := newTestServer(t, Config{Slots: 2})
	cases := []struct {
		body any
		want int
	}{
		{map[string]any{"problem": "no-such"}, http.StatusBadRequest},
		{map[string]any{"problem": "costas", "walkers": 64}, http.StatusBadRequest},
		{map[string]any{"problem": "costas", "strategy": "nope"}, http.StatusBadRequest},
		{"not an object", http.StatusBadRequest},
	}
	for i, c := range cases {
		resp, body := postJSON(t, srv.URL+"/v1/solve", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("case %d: status = %d, want %d (%s)", i, resp.StatusCode, c.want, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("case %d: no error payload: %s", i, body)
		}
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	s, srv := newTestServer(t, Config{Slots: 1, QueueDepth: 1})
	hard := map[string]any{"problem": "magic-square", "size": 30, "timeout_ms": 60_000}
	_, body := postJSON(t, srv.URL+"/v1/solve", hard)
	var running Job
	if err := json.Unmarshal(body, &running); err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, running.ID, StateRunning)
	if resp, _ := postJSON(t, srv.URL+"/v1/solve", hard); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second job not queued: %d", resp.StatusCode)
	}
	resp, body := postJSON(t, srv.URL+"/v1/solve", hard)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
	}
}

func TestHTTPCancel(t *testing.T) {
	s, srv := newTestServer(t, Config{Slots: 1})
	_, body := postJSON(t, srv.URL+"/v1/solve", map[string]any{"problem": "magic-square", "size": 30, "timeout_ms": 60_000})
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	waitForState(t, s, job.ID, StateRunning)
	resp, body := postJSON(t, srv.URL+"/v1/jobs/"+job.ID+"/cancel", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d: %s", resp.StatusCode, body)
	}
	waitForState(t, s, job.ID, StateCancelled)
}

func TestHTTPJobNotFound(t *testing.T) {
	_, srv := newTestServer(t, Config{Slots: 1})
	if resp := getJSON(t, srv.URL+"/v1/jobs/j999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestHTTPProblemsRegistry(t *testing.T) {
	_, srv := newTestServer(t, Config{Slots: 1})
	var out struct {
		Problems []struct {
			Name        string `json:"Name"`
			DefaultSize int    `json:"DefaultSize"`
		} `json:"problems"`
		Strategies []string `json:"strategies"`
	}
	if resp := getJSON(t, srv.URL+"/v1/problems", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	names := map[string]bool{}
	for _, p := range out.Problems {
		names[p.Name] = true
		if p.DefaultSize <= 0 {
			t.Errorf("problem %s has no default size", p.Name)
		}
	}
	for _, want := range []string{"costas", "magic-square", "all-interval", "perfect-square"} {
		if !names[want] {
			t.Errorf("registry listing missing %q", want)
		}
	}
	if len(out.Strategies) < 3 {
		t.Errorf("strategies = %v, want at least the 3 built-ins", out.Strategies)
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	s, srv := newTestServer(t, Config{Slots: 2})
	var health map[string]any
	if resp := getJSON(t, srv.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz: %+v", health)
	}
	// These four fields and no other: the progress stream is gone, and a
	// client from before it went must find no address to dial.
	for k := range health {
		switch k {
		case "status", "slots", "slots_busy", "queue_depth":
		default:
			t.Fatalf("healthz carries an unexpected field %q: %+v", k, health)
		}
	}

	if _, err := s.SubmitWait(nil, fastReq()); err != nil {
		t.Fatal(err)
	}
	var st Stats
	if resp := getJSON(t, srv.URL+"/metrics", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if st.Slots != 2 || st.JobsSubmitted != 1 || st.JobsSolved != 1 {
		t.Fatalf("metrics: %+v", st)
	}
	if st.Iterations <= 0 && st.JobsSolved == 1 {
		// A very fast solve may finish inside the first CheckEvery
		// window without a Progress callback; only flag the clearly
		// broken case of negative counters.
		if st.Iterations < 0 {
			t.Fatalf("negative iteration counter: %+v", st)
		}
	}
}

// TestHTTPLoad drives a mixed workload through the real HTTP stack —
// the in-process version of the loadgen smoke scenario.
func TestHTTPLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load scenario skipped in -short mode")
	}
	_, srv := newTestServer(t, Config{Slots: 8, QueueDepth: 128})
	client := srv.Client()
	const n = 60
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			probs := []string{"costas", "queens", "all-interval"}
			sizes := []int{8, 16, 8}
			req := map[string]any{
				"problem": probs[i%3], "size": sizes[i%3],
				"walkers": 1 + i%2, "seed": i + 1, "wait": true,
			}
			buf, _ := json.Marshal(req)
			for {
				resp, err := client.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(buf))
				if err != nil {
					errs <- err
					return
				}
				var job Job
				err = json.NewDecoder(resp.Body).Decode(&job)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d for %+v", resp.StatusCode, job)
					return
				}
				if !job.State.Terminal() {
					errs <- fmt.Errorf("non-terminal sync response: %+v", job)
					return
				}
				if job.State == StateFailed {
					errs <- fmt.Errorf("job failed: %s", job.Error)
					return
				}
				errs <- nil
				return
			}
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && !strings.Contains(err.Error(), "EOF") {
			t.Error(err)
		}
	}
}

// TestHTTPProblemParams covers the finite-domain params plumbing end to
// end: a timetable job with explicit params solves through POST
// /v1/solve, unknown or invalid params are typed 400 rejections
// (ErrBadParams at the scheduler layer), and a provably unsatisfiable
// instance is a synchronous 422 — the admission-time domain-reduction
// proof, not an asynchronous job failure.
func TestHTTPProblemParams(t *testing.T) {
	s, srv := newTestServer(t, Config{Slots: 4})

	// Happy path: explicit params shape the instance; the job solves.
	req := map[string]any{
		"problem": "timetable", "size": 20, "walkers": 2, "seed": 9, "wait": true,
		"params": map[string]int{"slots": 6, "rooms": 4, "teachers": 4},
	}
	resp, body := postJSON(t, srv.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.State != StateSolved || job.Result == nil || !job.Result.Solved {
		t.Fatalf("params solve: %+v", job)
	}
	if len(job.Result.Solution) != 20 {
		t.Fatalf("solution length %d, want 20", len(job.Result.Solution))
	}
	if job.Request.Params["slots"] != 6 {
		t.Fatalf("params not retained on the job snapshot: %+v", job.Request)
	}

	// Typed param rejections: 400 over HTTP, ErrBadParams at the API.
	badCases := []map[string]any{
		{"problem": "timetable", "params": map[string]int{"professors": 3}},
		{"problem": "timetable", "params": map[string]int{"rooms": 0}},
		{"problem": "queens", "params": map[string]int{"slots": 2}},
	}
	for i, c := range badCases {
		resp, body := postJSON(t, srv.URL+"/v1/solve", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad params case %d: status = %d, want 400 (%s)", i, resp.StatusCode, body)
		}
	}
	var reqBad Request
	reqBad.Problem = "timetable"
	reqBad.Params = map[string]int{"professors": 3}
	if _, err := s.Submit(reqBad); !errors.Is(err, ErrBadParams) || !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Submit bad params: err = %v, want ErrBadParams wrapping ErrBadRequest", err)
	}

	// Unsatisfiable: the reduction proof surfaces synchronously as 422.
	unsat := map[string]any{
		"problem": "timetable", "size": 3,
		"params": map[string]int{"rooms": 1, "slots": 2, "teachers": 3},
	}
	resp, body = postJSON(t, srv.URL+"/v1/solve", unsat)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unsat status = %d, want 422 (%s)", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], "unsatisfiable") {
		t.Fatalf("unsat error payload: %s", body)
	}
}
