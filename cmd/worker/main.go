// Command worker runs one distributed-solve worker process: it
// executes walker shards on behalf of a coordinator (cmd/serve
// -workers, or a dist.Coordinator embedded elsewhere) over the small
// HTTP JSON protocol of internal/dist.
//
// Usage:
//
//	worker -addr :9101 -slots 4
//	worker -addr :9101 -slots 4 -telemetry worker.ftdc
//	worker -addr :9101 -coordinator http://host:8080 -advertise http://me:9101
//	worker -addr :9101 -pprof 127.0.0.1:6061
//
// With -coordinator, the worker enrolls itself in the coordinator's
// dynamic fleet: it registers at startup (retrying with backoff until
// the coordinator is up), heartbeats on -heartbeat so the coordinator's
// health monitor need not probe it, and deregisters — draining
// gracefully — on shutdown. -advertise is the URL the coordinator
// should dial back; it defaults to http://<hostname><addr port>.
// -advertise and -heartbeat without -coordinator, and
// -telemetry-interval without -telemetry, are usage errors: the worker
// would ignore them.
//
// Dependent (exchange) shard runs sync a local board cache with the
// coordinator's board by POST, on change, on the tick the coordinator
// puts in the run request (serve -board-sync).
// When a run request carries a progress feed (the coordinator's
// -speculate mode), the worker also POSTs per-shard iteration counts on
// the requested cadence, so the coordinator's straggler detector can
// see how far behind this shard is. With -telemetry FILE, per-walker
// iteration/cost samples are appended to FILE in the FTDC-style
// schema-delta encoding (decode with `experiments ftdc-decode FILE`).
// With -pprof ADDR, net/http/pprof is served on ADDR, a listener apart
// from -addr that closes when the worker drains.
//
// Endpoints:
//
//	POST /v1/run              run a walker shard (blocks until done)
//	POST /v1/runs/{id}/cancel cancel an in-flight shard run
//	GET  /healthz             liveness + slot capacity and usage
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener drains,
// in-flight shard runs are cancelled, and their final (interrupted)
// statistics are delivered to the coordinator before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/profiling"
	"repro/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}

// config is one parsed invocation.
type config struct {
	addr, telemetryPath, coordinator, advertise, pprofAddr string
	slots                                                  int
	telemetryEvery, heartbeat                              time.Duration
}

// parse reads args into a config and rejects flags that would be
// ignored, before anything is started.
func parse(args []string, stderr io.Writer) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.addr, "addr", ":9101", "listen address")
	fs.IntVar(&c.slots, "slots", 0, "walker-slot capacity (0 = GOMAXPROCS)")
	fs.StringVar(&c.telemetryPath, "telemetry", "", "append FTDC-style per-walker telemetry frames to this file (empty = off)")
	fs.DurationVar(&c.telemetryEvery, "telemetry-interval", time.Second, "telemetry sampling period")
	fs.StringVar(&c.coordinator, "coordinator", "", "coordinator base URL to register with for dynamic-fleet membership (empty = static fleet, no registration)")
	fs.StringVar(&c.advertise, "advertise", "", "worker base URL advertised to the coordinator (default http://<hostname><addr port>)")
	fs.DurationVar(&c.heartbeat, "heartbeat", 0, "heartbeat period when registered with a coordinator (0 = 2s)")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof on this address, on a listener of its own (empty = off; e.g. 127.0.0.1:6061)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case fs.NArg() > 0:
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case set["advertise"] && c.coordinator == "":
		return nil, errors.New("-advertise needs -coordinator")
	case set["heartbeat"] && c.coordinator == "":
		return nil, errors.New("-heartbeat needs -coordinator")
	case set["telemetry-interval"] && c.telemetryPath == "":
		return nil, errors.New("-telemetry-interval needs -telemetry")
	}
	return c, nil
}

// run is the whole command: it parses args, serves shard runs until ctx
// is cancelled (SIGINT/SIGTERM in main) or the listener fails, and
// drains. It prints nothing on stdout; logs and flag usage go to
// stderr.
func run(ctx context.Context, args []string, _, stderr io.Writer) error {
	c, err := parse(args, stderr)
	if err != nil {
		return err
	}
	logger := log.New(stderr, "", log.LstdFlags)

	if c.pprofAddr != "" {
		bound, stopPprof, err := profiling.Serve(c.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		defer stopPprof()
		logger.Printf("worker: pprof on http://%s/debug/pprof/", bound)
	}

	cfg := dist.WorkerConfig{Slots: c.slots, TelemetryInterval: c.telemetryEvery}
	if c.telemetryPath != "" {
		f, err := os.Create(c.telemetryPath)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		defer f.Close()
		cfg.Telemetry = telemetry.NewRecorder(f)
		logger.Printf("worker: telemetry -> %s every %v", c.telemetryPath, c.telemetryEvery)
	}

	wk := dist.NewWorker(cfg)
	srv := &http.Server{
		Addr:              c.addr,
		Handler:           wk.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		logger.Printf("worker: listening on %s (slots=%d)", c.addr, wk.Slots())
		errc <- srv.ListenAndServe()
	}()

	var agent *dist.FleetAgent
	if c.coordinator != "" {
		adv, err := advertiseURL(c.advertise, c.addr)
		if err != nil {
			return err
		}
		agent, err = dist.NewFleetAgent(dist.AgentConfig{
			Coordinator: c.coordinator,
			Advertise:   adv,
			Worker:      wk,
			Interval:    c.heartbeat,
			Logf:        logger.Printf,
		})
		if err != nil {
			return fmt.Errorf("fleet agent: %w", err)
		}
		logger.Printf("worker: enrolling with %s as %s", c.coordinator, adv)
	}

	select {
	case err := <-errc:
		if agent != nil {
			agent.Close()
		}
		wk.Close()
		return err
	case <-ctx.Done():
		logger.Printf("worker: shutting down")
	}

	// Leave the fleet first (the coordinator marks us draining and stops
	// dispatching), then cancel in-flight runs so their handlers finish
	// (delivering interrupted stats), then drain the listener.
	if agent != nil {
		agent.Close()
	}
	wk.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("worker: listener shutdown: %v", err)
	}
	logger.Printf("worker: drained cleanly")
	return nil
}

// advertiseURL resolves the base URL the coordinator dials back:
// -advertise verbatim when set, otherwise http://<hostname><addr port>
// (falling back to 127.0.0.1 when the hostname is unavailable).
func advertiseURL(advertise, addr string) (string, error) {
	if advertise != "" {
		return advertise, nil
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("cannot derive -advertise from -addr %q: %v", addr, err)
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		if h, err := os.Hostname(); err == nil && h != "" {
			host = h
		} else {
			host = "127.0.0.1"
		}
	}
	return "http://" + net.JoinHostPort(host, port), nil
}
