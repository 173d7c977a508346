package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/dist"
	"repro/internal/multiwalk"
	"repro/internal/problems"
	"repro/internal/service"
)

// resultTTL keeps the scheduler's results store about one round deep.
const resultTTL = 5 * time.Second

// stack is the system under test: a scheduler behind its HTTP handler,
// over the local backend or a two-worker fleet.
type stack struct {
	handler http.Handler
	// start is construction until the first probe job returned.
	start time.Duration
	close func()
}

// buildStack assembles the serving stack w needs and sends one probe
// job through it, so listeners, fleet connections and lazily started
// goroutines exist before anything is timed. With tr set, the backend
// and every worker handler are wrapped in the tracer's decorators;
// without it the stack is exactly what cmd/serve builds.
func buildStack(w *workload, tr *tracer) (*stack, error) {
	t0 := time.Now()
	cfg := service.Config{Slots: walkersPerJob, ResultTTL: resultTTL}
	var closers []func() // run last to first
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	if w.fleet {
		var urls []string
		for k := 0; k < walkersPerJob; k++ {
			wk := dist.NewWorker(dist.WorkerConfig{Slots: 1})
			h := wk.Handler()
			if tr != nil {
				h = tr.workerMiddleware(k, h)
			}
			srv := httptest.NewServer(h)
			closers = append(closers, wk.Close, srv.Close)
			urls = append(urls, srv.URL)
		}
		coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Workers: urls})
		if err != nil {
			closeAll()
			return nil, err
		}
		cfg.Backend = coord // owned by the scheduler from here on
	}
	if tr != nil {
		if cfg.Backend == nil {
			cfg.Backend = localBackend{slots: walkersPerJob}
		}
		cfg.Backend = &tracedBackend{Backend: cfg.Backend, tr: tr}
	}
	sched := service.New(cfg)
	closers = append(closers, sched.Close)
	st := &stack{handler: service.NewHandler(sched), close: closeAll}

	probe := buildJobs(w, 0, 1)
	c := newClient(st.handler)
	c.play(probe, nil)
	if code := c.replies[0].code; code != http.StatusOK {
		closeAll()
		return nil, fmt.Errorf("probe job answered %d: %s", code, c.body(0))
	}
	st.start = time.Since(t0)
	return st, nil
}

// localBackend is the benchmark's copy of the service's unexported
// default backend, so that the traced run can put a span around it.
type localBackend struct{ slots int }

func (b localBackend) Name() string { return "local" }
func (b localBackend) Slots() int   { return b.slots }
func (b localBackend) Close()       {}

func (b localBackend) RunJob(ctx context.Context, problem string, size int, params map[string]int, factory problems.Factory, opts multiwalk.Options) (multiwalk.Result, error) {
	return multiwalk.Run(ctx, multiwalk.Factory(factory), opts)
}

// tracedBackend times every RunJob of the backend it wraps and keeps
// the per-walker statistics the result carries. The two optional
// interfaces the scheduler detects structurally are passed through, so
// a wrapped coordinator still resizes the pool and reports its gauges.
type tracedBackend struct {
	service.Backend
	tr *tracer
}

func (b *tracedBackend) RunJob(ctx context.Context, problem string, size int, params map[string]int, factory problems.Factory, opts multiwalk.Options) (multiwalk.Result, error) {
	id := b.tr.open(spanBackend, nil)
	res, err := b.Backend.RunJob(ctx, problem, size, params, factory, opts)
	b.tr.finish(id, func(s *span) { s.fromResult(&res) })
	return res, err
}

func (b *tracedBackend) NotifyCapacity(f func()) {
	if cn, ok := b.Backend.(service.CapacityNotifier); ok {
		cn.NotifyCapacity(f)
	}
}

func (b *tracedBackend) BackendMetrics() map[string]int64 {
	if mp, ok := b.Backend.(service.MetricsProvider); ok {
		return mp.BackendMetrics()
	}
	return nil
}
