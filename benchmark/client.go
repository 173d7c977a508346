package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"
)

// reply is what the client keeps of one job until the round is over.
type reply struct {
	code       int
	start, end time.Time // around ServeHTTP
	lo, hi     int       // the response body's place in client.arena
}

// client is the benchmark's one closed-loop client. It hands each
// request to the handler in-process and is its own ResponseWriter:
// bodies land in one arena that every round reuses, so that after the
// warm-up the client adds nothing to alloc_bytes_per_job but the
// requests themselves.
type client struct {
	h       http.Handler
	hdr     http.Header
	arena   []byte
	replies []reply
	cur     *reply
}

func newClient(h http.Handler) *client {
	return &client{h: h, hdr: make(http.Header)}
}

func (c *client) Header() http.Header  { return c.hdr }
func (c *client) WriteHeader(code int) { c.cur.code = code }
func (c *client) Write(p []byte) (int, error) {
	c.arena = append(c.arena, p...)
	return len(p), nil
}

// body returns job i's response body of the last round.
func (c *client) body(i int) []byte { return c.arena[c.replies[i].lo:c.replies[i].hi] }

// play sends the list once, one job at a time, and returns the round's
// wall time and the bytes the process allocated during it. Requests are
// built before the clock starts and nothing is parsed until it has
// stopped. With tr set, each job is announced to the tracer so that
// spans recorded deeper in the stack find their job.
func (c *client) play(jobs []job, tr *tracer) (wall time.Duration, alloc uint64) {
	reqs := make([]*http.Request, len(jobs))
	for i := range jobs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(jobs[i].body))
	}
	if cap(c.replies) < len(jobs) {
		c.replies = make([]reply, len(jobs))
	}
	c.replies = c.replies[:len(jobs)]
	c.arena = c.arena[:0]

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i, req := range reqs {
		c.cur = &c.replies[i]
		*c.cur = reply{code: http.StatusOK, lo: len(c.arena)}
		if tr != nil {
			tr.beginJob(i)
		}
		c.cur.start = time.Now()
		c.h.ServeHTTP(c, req)
		c.cur.end = time.Now()
		c.cur.hi = len(c.arena)
		if tr != nil {
			tr.endJob(c.cur.start, c.cur.end)
		}
	}
	wall = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return wall, ms1.TotalAlloc - ms0.TotalAlloc
}
