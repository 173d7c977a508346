package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/multiwalk"
)

// Span names, outermost first. A job has one client span, one backend
// span under it and, on the fleet, worker spans under that.
const (
	spanClient  = "client"         // around ServeHTTP; the job's latency
	spanBackend = "backend.RunJob" // around service.Backend.RunJob
	spanRun     = "worker.run"     // around a worker's POST /v1/run
	spanCancel  = "worker.cancel"  // around a worker's POST /v1/runs/{id}/cancel
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // the span that caused this one; -1 for a client span
	Job    int    `json:"job"`    // shared by every span of one request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`

	// Worker is the index of the worker a worker.* span ran on.
	Worker int `json:"worker,omitempty"`
	// ReqBytes and RespBytes are the body sizes a worker.* span saw.
	ReqBytes  int `json:"req_bytes,omitempty"`
	RespBytes int `json:"resp_bytes,omitempty"`
	// SearchNS is the longest per-walker Elapsed in the result the call
	// returned: the part of the span its walkers cover. WinnerNS is the
	// winning walker's Elapsed. Backend and worker.run spans only.
	SearchNS int64 `json:"search_ns,omitempty"`
	WinnerNS int64 `json:"winner_ns,omitempty"`
	// Solved reports whether the call's result held a solution.
	Solved bool `json:"solved,omitempty"`

	resp []byte // a worker.run response body, decoded after the round
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory. The benchmark has one client and
// that client has one job in flight, so a span opened anywhere in the
// process belongs to the job the client announced last; that is how
// the backend decorator and the worker middleware, which never see a
// job id, find their parent.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	job     int
	client  int // open client span
	backend int // last opened backend span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity), client: -1, backend: -1}
}

// reset forgets every span recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.client, t.backend = t.spans[:0], -1, -1
}

func (t *tracer) open(name string, fill func(*span)) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans), Job: t.job, Name: name, Start: now, Parent: -1}
	switch name {
	case spanClient:
		t.client = s.ID
	case spanBackend:
		s.Parent = t.client
		t.backend = s.ID
	case spanRun, spanCancel:
		s.Parent = t.backend
	}
	if fill != nil {
		fill(&s)
	}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) finish(id int, fill func(*span)) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	if fill != nil {
		fill(&t.spans[id])
	}
}

// beginJob opens job i's client span; endJob closes it with the stamps
// the client took itself, so the span is exactly the job's latency.
func (t *tracer) beginJob(i int) {
	t.mu.Lock()
	t.job = i
	t.mu.Unlock()
	t.open(spanClient, nil)
}

func (t *tracer) endJob(start, end time.Time) {
	t.finish(t.client, func(s *span) {
		s.Start, s.End = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	})
}

// fromResult notes what a call's result says about the walkers that
// ran inside the span.
func (s *span) fromResult(res *multiwalk.Result) {
	s.Solved = res.Solved
	for _, ws := range res.Walkers {
		s.SearchNS = max(s.SearchNS, int64(ws.Result.Elapsed))
		if ws.Walker == res.Winner {
			s.WinnerNS = int64(ws.Result.Elapsed)
		}
	}
}

// workerMiddleware wraps worker k's handler: it times run and cancel
// requests, counts their body bytes and keeps run responses for the
// per-walker statistics in them. Other routes pass through unrecorded.
func (t *tracer) workerMiddleware(k int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var name string
		switch {
		case r.URL.Path == "/v1/run":
			name = spanRun
		case strings.HasSuffix(r.URL.Path, "/cancel"):
			name = spanCancel
		default:
			next.ServeHTTP(w, r)
			return
		}
		id := t.open(name, func(s *span) { s.Worker = k })
		// A failed read leaves a short body, which the worker's own
		// decoder then rejects.
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		cw := &captureWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		t.finish(id, func(s *span) {
			s.ReqBytes, s.RespBytes = len(body), cw.buf.Len()
			if name == spanRun {
				s.resp = cw.buf.Bytes()
			}
		})
	})
}

// captureWriter copies what a handler writes.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.buf.Write(p)
	return c.ResponseWriter.Write(p)
}

// selfTime is a span's duration minus the part of its interval that
// its children cover; overlapping children are counted once.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered int64
	end := parent.Start
	for _, x := range iv {
		lo, hi := max(x[0], end), x[1]
		if hi > lo {
			covered += hi - lo
			end = hi
		}
	}
	return parent.dur() - covered
}

// writeSpans stores the spans as one JSON array in dir.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+workload+".json"), data, 0o644)
}
