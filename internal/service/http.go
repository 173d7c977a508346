package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/domain"
	"repro/internal/httpjson"
	"repro/internal/problems"
)

// NewHandler exposes a scheduler as an HTTP JSON API:
//
//	POST /v1/solve              submit a job; {"wait": true} blocks for the result
//	GET  /v1/jobs/{id}          job status / result; ?wait=<duration> long-polls
//	POST /v1/jobs/{id}/cancel   cancel a queued or running job
//	GET  /v1/problems           registered problems, with their default sizes
//	GET  /healthz               liveness + pool headroom
//	GET  /metrics               expvar-style counters (Stats)
//
// Error responses are {"error": "..."} with ErrQueueFull mapped to 429,
// ErrBadRequest to 400, ErrNotFound to 404, ErrClosed to 503,
// ErrNoCalibration to 409, and both unsatisfiability proofs — a
// domain-reduction one (domain.ErrUnsatisfiable) and an auto-size
// target no walker count can meet (ErrUnsatisfiable) — to 422.
func NewHandler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		body, err := decodeSolveBody(r.Body)
		if err != nil {
			writeError(w, err)
			return
		}
		if body.Wait {
			// Only a client that went away could end this wait early, and
			// an answer sent then reaches nobody: the wait is to the end,
			// which lets an idle pool run the job on this goroutine.
			job, err := s.SubmitWait(context.WithoutCancel(r.Context()), body.Request)
			if err != nil {
				writeError(w, err)
				return
			}
			httpjson.Write(w, http.StatusOK, job)
			return
		}
		job, err := s.Submit(body.Request)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		httpjson.Write(w, http.StatusAccepted, job)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		var job Job
		var err error
		if q := r.URL.Query(); q.Has("wait") {
			job, err = awaitJob(r.Context(), s, id, q.Get("wait"))
		} else {
			job, err = s.Get(id)
		}
		if err != nil {
			writeError(w, err)
			return
		}
		httpjson.Write(w, http.StatusOK, job)
	})
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		job, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		httpjson.Write(w, http.StatusOK, job)
	})
	mux.HandleFunc("GET /v1/problems", func(w http.ResponseWriter, r *http.Request) {
		names := problems.Names()
		infos := make([]problems.Info, 0, len(names))
		for _, n := range names {
			info, err := problems.Describe(n)
			if err != nil {
				continue
			}
			infos = append(infos, info)
		}
		httpjson.Write(w, http.StatusOK, map[string]any{"problems": infos})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		status, code := "ok", http.StatusOK
		if s.Closed() {
			status, code = "shutting down", http.StatusServiceUnavailable
		}
		httpjson.Write(w, code, map[string]any{
			"status":      status,
			"slots":       st.Slots,
			"slots_busy":  st.SlotsBusy,
			"queue_depth": st.QueueDepth,
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		httpjson.Write(w, http.StatusOK, s.Stats())
	})
	return mux
}

// maxJobWait caps one GET /v1/jobs/{id}?wait= long-poll. It sits below
// cmd/serve's 15 s drain budget, so a SIGTERM never finds a request the
// listener cannot drain in time; a client that needs longer asks again.
const maxJobWait = 10 * time.Second

// jobWait parses the wait query parameter: a non-negative Go duration,
// clamped to maxJobWait. Anything else wraps ErrBadRequest.
func jobWait(raw string) (time.Duration, error) {
	d, err := time.ParseDuration(raw)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("%w: wait=%q is not a non-negative duration", ErrBadRequest, raw)
	}
	return min(d, maxJobWait), nil
}

// awaitJob is the long-poll: it blocks until the job is terminal, the
// wait expires or the client goes away, and answers the job's record as
// it then stands — an expired wait is an ordinary, non-terminal answer,
// not an error. It is the only way to await an async job without
// polling.
func awaitJob(ctx context.Context, s *Scheduler, id, rawWait string) (Job, error) {
	d, err := jobWait(rawWait)
	if err != nil {
		return Job{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	job, err := s.Wait(ctx, id)
	if err != nil && ctx.Err() != nil {
		return s.Get(id)
	}
	return job, err
}

// solveBody is the POST /v1/solve payload: a Request plus the
// sync/async switch.
type solveBody struct {
	Request
	// Wait makes the call synchronous: the response is the terminal
	// job, not the queued acknowledgement.
	Wait bool `json:"wait,omitempty"`
}

// maxSolveBodyLen caps the solve payload; a request that large is
// garbage long before the scheduler's own validation would say so.
const maxSolveBodyLen = 8 << 20

// decodeSolveBody parses one POST /v1/solve payload. Every decode
// failure wraps ErrBadRequest (the fuzz suite pins this), so transport
// mistakes and admission rejections surface through the same typed
// error the HTTP layer maps to 400. A field the request does not have
// is such a mistake: a misspelt or retired field would otherwise be
// dropped, and the job run with a default in its place. So is anything
// but whitespace after the body: a second object or a stray tail would
// otherwise be ignored.
func decodeSolveBody(r io.Reader) (solveBody, error) {
	var body solveBody
	if err := httpjson.Decode(r, maxSolveBodyLen, &body); err != nil {
		return solveBody{}, fmt.Errorf("%w: invalid JSON: %v", ErrBadRequest, err)
	}
	return body, nil
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, domain.ErrUnsatisfiable), errors.Is(err, ErrUnsatisfiable):
		// The model is well-formed but provably has no solution — or the
		// auto-size target is provably unreachable at any walker count:
		// the request was understood, the entity cannot be processed.
		code = http.StatusUnprocessableEntity
	case errors.Is(err, ErrNoCalibration):
		// The request is fine but the server lacks the calibration state
		// to honor it; retry after calibrating (409, not 400 — nothing
		// about the request itself is wrong).
		code = http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	httpjson.Write(w, code, map[string]string{"error": err.Error()})
}
