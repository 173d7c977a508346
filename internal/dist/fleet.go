package dist

// This file is the fleet membership protocol: the coordinator side
// (registration and drain endpoints over the shared registry) and the
// worker side (FleetAgent, the background loop cmd/worker runs against
// a coordinator). The periodic register is the heartbeat: a known
// worker is refreshed, an unknown one (a coordinator that restarted)
// probed back and enrolled. Every fleet message is one JSON body, read
// strictly (httpjson.Decode) so a peer speaking another revision of
// the protocol is rejected loudly instead of half-understood.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/httpjson"
)

// RegisterRequest is a worker's fleet announcement, sent at startup and
// then every AgentConfig.Interval. The coordinator probes URL back
// before enrolling, so the Slots claim is advisory — the probe's answer
// wins; a known worker claiming the slots it was enrolled with is
// refreshed without a probe.
type RegisterRequest struct {
	URL   string `json:"url"`
	Slots int    `json:"slots"`
}

// maxFleetBodyLen bounds fleet endpoint request bodies; membership
// messages are a few hundred bytes at most.
const maxFleetBodyLen = 1 << 16

// FleetHandler returns the coordinator's fleet membership surface,
// mounted by cmd/serve beside the service API:
//
//	POST /v1/fleet/register   join, rejoin or refresh liveness
//	POST /v1/fleet/deregister graceful leave: drain, no new shards
//	GET  /v1/fleet            fleet table snapshot
func (c *Coordinator) FleetHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleet/register", c.handleRegister)
	mux.HandleFunc("POST /v1/fleet/deregister", c.handleDeregister)
	mux.HandleFunc("GET /v1/fleet", c.handleFleet)
	return mux
}

func decodeFleetBody(r *http.Request, v any) error {
	if err := httpjson.Decode(r.Body, maxFleetBodyLen, v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

// workerBase rejects a junk worker (or coordinator) URL before anything
// dials it, and returns it without a trailing slash: the one spelling
// the registry keys a worker by, however it was enrolled.
func workerBase(raw string) (string, error) {
	if raw == "" {
		return "", fmt.Errorf("%w: worker url required", ErrBadRequest)
	}
	if len(raw) > maxWorkerURL {
		return "", fmt.Errorf("%w: worker url exceeds %d bytes", ErrBadRequest, maxWorkerURL)
	}
	u, err := url.Parse(raw)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("%w: worker url must be absolute http(s)", ErrBadRequest)
	}
	return strings.TrimSuffix(raw, "/"), nil
}

// handleRegister enrolls a worker at runtime, or refreshes one it
// knows. A known worker, not draining, that claims the slots it was
// enrolled with is marked seen (and revived if suspect or dead) without
// a probe: that is the periodic register doing a heartbeat's job.
// Anything else is probed back — on the coordinator's own short
// timeout, never the caller's — so unreachable or misconfigured workers
// are rejected here instead of surfacing as lost shards later.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var reg RegisterRequest
	if err := decodeFleetBody(r, &reg); err != nil {
		writeError(w, err)
		return
	}
	base, err := workerBase(reg.URL)
	if err != nil {
		writeError(w, err)
		return
	}
	slots := reg.Slots
	if !c.reg.refresh(base, slots, time.Now()) {
		if slots, err = c.probe(base); err != nil {
			writeError(w, fmt.Errorf("probing %s: %w", base, err))
			return
		}
		c.reg.upsert(base, slots, time.Now())
	}
	httpjson.Write(w, http.StatusOK, map[string]any{"enrolled": true, "slots": slots})
}

// handleDeregister marks a worker draining: in-flight shards finish,
// nothing new is dispatched.
func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	if err := decodeFleetBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	base, err := workerBase(req.URL)
	if err != nil {
		writeError(w, err)
		return
	}
	known := c.reg.deregister(base)
	httpjson.Write(w, http.StatusOK, map[string]any{"known": known})
}

// handleFleet answers with the fleet table.
func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	httpjson.Write(w, http.StatusOK, map[string]any{"workers": c.reg.snapshot()})
}

// ---------------------------------------------------------------------
// Worker-side agent.

// AgentConfig configures a worker's fleet agent.
type AgentConfig struct {
	// Coordinator is the coordinator's base URL (the serve process, e.g.
	// "http://10.0.0.1:8080").
	Coordinator string
	// Advertise is this worker's base URL as the coordinator should
	// dial it (e.g. "http://10.0.0.7:9101").
	Advertise string
	// Worker supplies the slot count each register claims.
	Worker *Worker
	// Interval is the register period once enrolled, which is the
	// worker's heartbeat. 0 selects 2s.
	Interval time.Duration
	// Client is the HTTP client for registry traffic. nil selects a
	// default with per-call timeouts.
	Client *http.Client
	// Logf, when non-nil, receives agent lifecycle messages.
	Logf func(format string, args ...any)
}

// FleetAgent keeps one worker registered with a coordinator: it
// registers at startup (retrying with backoff until the coordinator is
// up), registers again every Interval — the heartbeat, and how a
// coordinator that restarted learns the worker again — and announces a
// drain on Close.
type FleetAgent struct {
	cfg    AgentConfig
	client *http.Client
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// NewFleetAgent validates the config and starts the agent loop.
func NewFleetAgent(cfg AgentConfig) (*FleetAgent, error) {
	var err error
	if cfg.Coordinator, err = workerBase(cfg.Coordinator); err != nil {
		return nil, fmt.Errorf("dist: agent coordinator: %w", err)
	}
	if cfg.Advertise, err = workerBase(cfg.Advertise); err != nil {
		return nil, fmt.Errorf("dist: agent advertise: %w", err)
	}
	if cfg.Worker == nil {
		return nil, errors.New("dist: agent needs a Worker")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	a := &FleetAgent{cfg: cfg, client: cfg.Client, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	go a.loop()
	return a, nil
}

// Close drains the worker out of the fleet (best-effort deregister)
// and stops the agent.
func (a *FleetAgent) Close() {
	a.cancel()
	<-a.done
	// The drain announcement runs after the loop stops, on its own
	// bounded context — the agent's context is already cancelled.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = a.send(ctx, "/v1/fleet/deregister", map[string]string{"url": a.cfg.Advertise})
}

// loop registers every Interval until cancelled. Until the first
// register succeeds it retries with backoff instead: the worker may
// simply have started before the coordinator.
func (a *FleetAgent) loop() {
	defer close(a.done)
	const maxBackoff = 8 * time.Second
	backoff := 500 * time.Millisecond
	enrolled := false
	for {
		ctx, cancel := context.WithTimeout(a.ctx, 10*time.Second)
		err := a.send(ctx, "/v1/fleet/register", RegisterRequest{URL: a.cfg.Advertise, Slots: a.cfg.Worker.Slots()})
		cancel()
		wait := a.cfg.Interval
		switch {
		case a.ctx.Err() != nil:
			return
		case err == nil && !enrolled:
			a.cfg.Logf("fleet: registered with %s as %s", a.cfg.Coordinator, a.cfg.Advertise)
			enrolled = true
		case err != nil && !enrolled:
			a.cfg.Logf("fleet: register with %s failed (retry in %v): %v", a.cfg.Coordinator, backoff, err)
			wait = backoff
			backoff = min(2*backoff, maxBackoff)
		case err != nil:
			a.cfg.Logf("fleet: register with %s failed: %v", a.cfg.Coordinator, err)
		}
		select {
		case <-a.ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}

// send posts one fleet message to the coordinator's path.
func (a *FleetAgent) send(ctx context.Context, path string, body any) error {
	return httpjson.Call(ctx, a.client, http.MethodPost, a.cfg.Coordinator+path, body, nil, maxFleetBodyLen)
}
