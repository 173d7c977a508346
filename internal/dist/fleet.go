package dist

// This file is the fleet membership protocol: the coordinator side
// (registration, heartbeat and drain endpoints over the shared
// registry) and the worker side (FleetAgent, the background
// register/heartbeat/drain loop cmd/worker runs against a
// coordinator). Every fleet message is one JSON body, decoded with
// DisallowUnknownFields so a peer speaking another revision of the
// protocol is rejected loudly instead of half-understood.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/httpjson"
)

// RegisterRequest is a worker's fleet announcement. The coordinator
// probes URL back before enrolling, so the Slots claim is advisory —
// the probe's answer wins.
type RegisterRequest struct {
	URL   string `json:"url"`
	Slots int    `json:"slots"`
}

// HeartbeatRequest is a worker's liveness refresh.
type HeartbeatRequest struct {
	URL      string `json:"url"`
	Slots    int    `json:"slots"`
	Busy     int    `json:"busy"`
	Draining bool   `json:"draining"`
}

// maxFleetBodyLen bounds fleet endpoint request bodies; membership
// messages are a few hundred bytes at most.
const maxFleetBodyLen = 1 << 16

// FleetHandler returns the coordinator's fleet membership surface,
// mounted by cmd/serve beside the service API:
//
//	POST /v1/fleet/register   join (or rejoin) the fleet
//	POST /v1/fleet/heartbeat  refresh liveness and capability
//	POST /v1/fleet/deregister graceful leave: drain, no new shards
//	GET  /v1/fleet            fleet table snapshot
func (c *Coordinator) FleetHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleet/register", c.handleRegister)
	mux.HandleFunc("POST /v1/fleet/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/fleet/deregister", c.handleDeregister)
	mux.HandleFunc("GET /v1/fleet", c.handleFleet)
	return mux
}

func decodeJSONBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxFleetBodyLen))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

// validateWorkerURL rejects junk registrations before the coordinator
// dials anything.
func validateWorkerURL(raw string) error {
	if raw == "" {
		return fmt.Errorf("%w: worker url required", ErrBadRequest)
	}
	if len(raw) > maxBoardURL {
		return fmt.Errorf("%w: worker url exceeds %d bytes", ErrBadRequest, maxBoardURL)
	}
	u, err := url.Parse(raw)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("%w: worker url must be absolute http(s)", ErrBadRequest)
	}
	return nil
}

// handleRegister enrolls a worker at runtime. The coordinator probes
// the advertised URL back — on its own short timeout, never the
// caller's — so unreachable or misconfigured workers are rejected here
// instead of surfacing as lost shards later.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var reg RegisterRequest
	if err := decodeJSONBody(r, &reg); err != nil {
		writeError(w, err)
		return
	}
	if err := validateWorkerURL(reg.URL); err != nil {
		writeError(w, err)
		return
	}
	base := strings.TrimSuffix(reg.URL, "/")
	slots, err := c.probe(base, c.probeTimeout)
	if err != nil {
		writeError(w, fmt.Errorf("probing %s: %w", base, err))
		return
	}
	c.reg.upsert(base, slots, time.Now())
	httpjson.Write(w, http.StatusOK, map[string]any{"enrolled": true, "slots": slots})
}

// handleHeartbeat refreshes a worker's liveness. Unknown workers get a
// 404 — the agent's cue to re-register (a coordinator restart empties
// the registry; workers re-join on their next heartbeat cycle).
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb HeartbeatRequest
	if err := decodeJSONBody(r, &hb); err != nil {
		writeError(w, err)
		return
	}
	if err := validateWorkerURL(hb.URL); err != nil {
		writeError(w, err)
		return
	}
	base := strings.TrimSuffix(hb.URL, "/")
	if !c.reg.heartbeat(base, hb.Slots, hb.Draining, time.Now()) {
		httpjson.Write(w, http.StatusNotFound, map[string]any{"error": "unknown worker; register first", "known": false})
		return
	}
	httpjson.Write(w, http.StatusOK, map[string]any{"known": true})
}

// handleDeregister marks a worker draining: in-flight shards finish,
// nothing new is dispatched.
func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	if err := decodeJSONBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := validateWorkerURL(req.URL); err != nil {
		writeError(w, err)
		return
	}
	known := c.reg.deregister(strings.TrimSuffix(req.URL, "/"))
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
	// Worker supplies live slot and busy counts for heartbeats.
	Worker *Worker
	// Interval is the heartbeat period. 0 selects 2s.
	Interval time.Duration
	// Client is the HTTP client for registry traffic. nil selects a
	// default with per-call timeouts.
	Client *http.Client
	// Logf, when non-nil, receives agent lifecycle messages.
	Logf func(format string, args ...any)
}

// FleetAgent keeps one worker registered with a coordinator: it
// registers at startup (retrying until the coordinator is up),
// heartbeats on a fixed cadence, re-registers when the coordinator
// forgets it (restart), and announces a drain on Close.
type FleetAgent struct {
	cfg    AgentConfig
	client *http.Client
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// NewFleetAgent validates the config and starts the agent loop.
func NewFleetAgent(cfg AgentConfig) (*FleetAgent, error) {
	if err := validateWorkerURL(cfg.Coordinator); err != nil {
		return nil, fmt.Errorf("dist: agent coordinator: %w", err)
	}
	if err := validateWorkerURL(cfg.Advertise); err != nil {
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
	cfg.Coordinator = strings.TrimSuffix(cfg.Coordinator, "/")
	cfg.Advertise = strings.TrimSuffix(cfg.Advertise, "/")
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
	body, _ := json.Marshal(map[string]string{"url": a.cfg.Advertise})
	_ = a.send(ctx, "/v1/fleet/deregister", body)
}

// loop registers, then heartbeats until cancelled. Registration
// failures back off and retry forever: the worker may simply have
// started before the coordinator.
func (a *FleetAgent) loop() {
	defer close(a.done)
	backoff := 500 * time.Millisecond
	for a.ctx.Err() == nil {
		if err := a.register(); err != nil {
			a.cfg.Logf("fleet: register with %s failed (retry in %v): %v", a.cfg.Coordinator, backoff, err)
			select {
			case <-a.ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff < 8*time.Second {
				backoff *= 2
			}
			continue
		}
		a.cfg.Logf("fleet: registered with %s as %s", a.cfg.Coordinator, a.cfg.Advertise)
		backoff = 500 * time.Millisecond
		if !a.heartbeats() {
			return
		}
		// heartbeats returned because the coordinator forgot us —
		// fall through and re-register.
	}
}

// register announces the worker once.
func (a *FleetAgent) register() error {
	body, err := json.Marshal(RegisterRequest{URL: a.cfg.Advertise, Slots: a.cfg.Worker.Slots()})
	if err != nil {
		return err
	}
	return a.post("/v1/fleet/register", body)
}

// heartbeats runs the heartbeat cadence. It returns false when the
// agent is closing, true when the coordinator answered 404 (unknown
// worker) and the caller should re-register.
func (a *FleetAgent) heartbeats() bool {
	tick := time.NewTicker(a.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-a.ctx.Done():
			return false
		case <-tick.C:
			body, _ := json.Marshal(HeartbeatRequest{
				URL:   a.cfg.Advertise,
				Slots: a.cfg.Worker.Slots(),
				Busy:  a.cfg.Worker.Busy(),
			})
			err := a.post("/v1/fleet/heartbeat", body)
			if errors.Is(err, errUnknownWorker) {
				a.cfg.Logf("fleet: coordinator forgot %s; re-registering", a.cfg.Advertise)
				return true
			}
			if err != nil {
				a.cfg.Logf("fleet: heartbeat to %s failed: %v", a.cfg.Coordinator, err)
			}
		}
	}
}

// errUnknownWorker reports a heartbeat 404: the coordinator does not
// know this worker (typically after a restart) and it must re-register.
var errUnknownWorker = errors.New("dist: coordinator does not know this worker")

// post sends one fleet message on the agent's context.
func (a *FleetAgent) post(path string, body []byte) error {
	ctx, cancel := context.WithTimeout(a.ctx, 10*time.Second)
	defer cancel()
	return a.send(ctx, path, body)
}

// send posts body to the coordinator's path and reads the reply to EOF,
// bounded by maxFleetBodyLen, so the keep-alive connection goes back to
// the pool: closed unread, every heartbeat would dial a new one.
func (a *FleetAgent) send(ctx context.Context, path string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	_ = httpjson.Read(io.LimitReader(resp.Body, maxFleetBodyLen), &e)
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusNotFound:
		return errUnknownWorker
	default:
		if e.Error == "" {
			e.Error = fmt.Sprintf("status %d", resp.StatusCode)
		}
		return errors.New(e.Error)
	}
}
