//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/multiwalk"
	"repro/internal/problems"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// TestProcesses runs serve and worker as processes, where a process
// boundary is what is checked: a worker SIGKILLed or SIGSTOPped under a
// job, a worker's graceful leave, first-solution cancels and relays
// between processes, a SIGTERM drain and the telemetry it leaves. The
// binaries are built once, with -race when this test binary has it.
// Every child is killed at cleanup, and with the test process if that
// dies first.
func TestProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds serve and worker and runs fleets of processes; skipped in -short")
	}
	bin := t.TempDir()
	for name, pkg := range map[string]string{"serve": ".", "worker": "../worker"} {
		args := []string{"build", "-o", filepath.Join(bin, name)}
		if raceEnabled {
			args = append(args, "-race")
		}
		if out, err := exec.Command("go", append(args, pkg)...).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	stalled := stallingJob(t)

	t.Run("recovery", func(t *testing.T) {
		serve := start(t, bin, "serve", "-fleet", "-fleet-heartbeat", "500ms")
		workers := enroll(t, bin, serve, 3, 2)
		id := submit(t, serve, stalled)
		victim := workers[fullWorker(t, serve, 2)]
		victim.signal(t, syscall.SIGKILL)
		job := await(t, serve.url, id)
		checkUntruncated(t, job, stalled)
		if m := fleetMetrics(t, serve); m["shards_recovered"] < 1 || m["walkers_recovered"] < 1 {
			t.Errorf("no recovery counted: %v", m)
		}

		// A SIGTERMed worker leaves: it deregisters and drains.
		delete(workers, victim.url)
		var leaver *proc
		for _, leaver = range workers {
			break
		}
		leaver.signal(t, syscall.SIGTERM)
		leaver.wait(t)
		poll(t, leaver.url+" to show draining", func() bool {
			table := fleet(t, serve)
			i := slices.IndexFunc(table, func(w dist.WorkerInfo) bool { return w.URL == leaver.url })
			return i >= 0 && table[i].State == "draining"
		})
		serve.drain(t)
	})

	t.Run("speculation", func(t *testing.T) {
		// The six walkers pack onto the first two workers, three slots
		// each; the third is free to host a backup.
		serve := start(t, bin, "serve", "-fleet", "-fleet-heartbeat", "500ms", "-speculate")
		workers := enroll(t, bin, serve, 3, 3)
		id := submit(t, serve, stalled)
		victim := workers[fullWorker(t, serve, 3)]
		// Alive to the kernel, answering nothing: its shard stops.
		victim.signal(t, syscall.SIGSTOP)
		job := await(t, serve.url, id)
		victim.signal(t, syscall.SIGCONT)
		checkUntruncated(t, job, stalled)
		if m := fleetMetrics(t, serve); m["speculations_launched"] < 1 || m["speculations_won"] < 1 {
			t.Errorf("no speculation won: %v", m)
		}
		serve.drain(t)
	})

	t.Run("static fleet", func(t *testing.T) {
		w1 := start(t, bin, "worker", "-slots", "2")
		w2 := start(t, bin, "worker", "-slots", "2")
		ftdc := filepath.Join(t.TempDir(), "serve.ftdc")
		serve := start(t, bin, "serve", "-workers", w1.url+","+w2.url, "-telemetry", ftdc, "-telemetry-interval", "100ms")
		var st service.Stats
		mustFetch(t, serve.url+"/metrics", nil, &st)
		if st.Backend != "dist(2 workers)" {
			t.Fatalf("backend %q, want dist(2 workers)", st.Backend)
		}

		// A finite-domain job sharded over both workers solves, and a
		// parameter set domain reduction proves unsatisfiable is a 422
		// at admission.
		var fd service.Job
		if code, body := mustFetch(t, serve.url+"/v1/solve", map[string]any{
			"problem": "timetable", "size": 20, "params": map[string]int{"slots": 6, "rooms": 4, "teachers": 4},
			"walkers": 4, "timeout_ms": 30000, "wait": true,
		}, &fd); code != http.StatusOK || fd.State != service.StateSolved {
			t.Errorf("timetable-20: status %d: %s", code, body)
		}
		if code, body := mustFetch(t, serve.url+"/v1/solve", map[string]any{
			"problem": "timetable", "size": 3, "params": map[string]int{"rooms": 1, "slots": 2, "teachers": 3}, "wait": true,
		}, nil); code != http.StatusUnprocessableEntity || !strings.Contains(string(body), "unsatisfiable") {
			t.Errorf("unsatisfiable timetable: status %d: %s, want 422", code, body)
		}

		// The mixed load, independent and then dependent, with every
		// async job awaited by long-poll: each ends inside the wait
		// cap, so each costs one GET.
		for _, step := range []struct {
			exchange               bool
			jobs, conc, asyncEvery int
		}{{false, 20, 4, 5}, {true, 10, 2, 1}} {
			if awaited, gets := load(t, serve.url, step.exchange, step.jobs, step.conc, step.asyncEvery); awaited != step.jobs/step.asyncEvery || gets != awaited {
				t.Errorf("exchange %v: %d jobs awaited with %d GETs, want %d with one GET each", step.exchange, awaited, gets, step.jobs/step.asyncEvery)
			}
		}

		// First-solution termination across the process boundary: with
		// seed 87 walkers 0-1 solve in 394 and 2 842 iterations while
		// walkers 2-3 need 12 060 and 29 614 (solve -virtual), so the
		// solved shard's cancel finds the other worker's run live. A
		// cancel can still outrun that run's request, stopping it at
		// registration unacked, so the job is sent until one is acked.
		cancels := func() (n int64) {
			for _, w := range []*proc{w1, w2} {
				var h struct {
					Cancels int64 `json:"cancels_total"`
				}
				mustFetch(t, w.url+"/healthz", nil, &h)
				n += h.Cancels
			}
			return n
		}
		for try := 1; fleetMetrics(t, serve)["first_solution_cancels_acked"] < 1; try++ {
			if try > 5 {
				t.Fatalf("5 jobs sent cancels but none was acked: %v", fleetMetrics(t, serve))
			}
			var job service.Job
			if code, body := mustFetch(t, serve.url+"/v1/solve", map[string]any{
				"problem": "costas", "size": 14, "walkers": 4, "seed": 87, "timeout_ms": 60000, "wait": true,
			}, &job); code != http.StatusOK || job.State != service.StateSolved {
				t.Fatalf("costas-14: status %d: %s", code, body)
			}
			if n, sent := cancels(), fleetMetrics(t, serve)["first_solution_cancels_sent"]; n < 1 || sent < 1 {
				t.Fatalf("cancels_total %d on the workers, first_solution_cancels_sent %d: want both > 0", n, sent)
			}
		}

		// A dependent job that outlives dozens of relay ticks adopts
		// the relayed best: no walker solves within its one run (alone,
		// walkers 0-2 need 31.9M, 89.0M and over 3.8M iterations).
		var ex service.Job
		if code, body := mustFetch(t, serve.url+"/v1/solve", map[string]any{
			"problem": "costas", "size": 20, "walkers": 4, "seed": 1,
			"max_iterations": scaled(100_000), "max_runs": 1,
			"exchange":   map[string]any{"enabled": true, "period_iters": 64, "adopt_factor": 1.5},
			"timeout_ms": 120000, "wait": true,
		}, &ex); code != http.StatusOK || ex.Result == nil || ex.Result.Adoptions < 1 {
			t.Errorf("exchange job adopted nothing: status %d: %s", code, body)
		}

		serve.drain(t)
		f, err := os.Open(ftdc)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		samples, err := telemetry.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) < 2 {
			t.Fatalf("%d telemetry rows, want >= 2", len(samples))
		}
		last := map[string]int64{}
		for _, m := range samples[len(samples)-1].Metrics {
			last[m.Name] = m.Value
		}
		// The relay's calls to the workers carried the exchange jobs.
		if _, ok := last["jobs_submitted"]; !ok || last["board_http_syncs"] < 1 || last["board_rx_bytes"] < 1 {
			t.Errorf("last telemetry row %v: want jobs_submitted, and board_http_syncs and board_rx_bytes > 0", last)
		}
	})
}

// scaled is a per-walker iteration budget for these binaries: a tenth
// of n under the race detector, whose engine runs about 25 times
// slower.
func scaled(n int64) int64 {
	if raceEnabled {
		return n / 10
	}
	return n
}

// stallingJob is the job the kill and stop subtests submit: six walkers
// on a hard instance, each on one run of a budget within which none
// solves, so every walker runs its budget out, the job lasts long
// enough for the fault to land mid-run, and its answer does not depend
// on when it lands. It checks that first, in process.
func stallingJob(t *testing.T) map[string]any {
	t.Helper()
	const size, walkers, seed = 20, 6, 42
	budget := scaled(60_000)
	engine, factory, err := problems.Resolve("costas", size, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine.MaxIterations, engine.MaxRuns = budget, 1
	res, err := multiwalk.RunVirtual(context.Background(), factory, multiwalk.Options{Walkers: walkers, Seed: seed, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Fatalf("walker %d solves costas-%d in %d iterations, inside the %d budget", res.Winner, size, res.WinnerIterations, budget)
	}
	return map[string]any{
		"problem": "costas", "size": size, "walkers": walkers, "seed": seed,
		"max_iterations": budget, "max_runs": 1, "timeout_ms": 60000,
	}
}

// checkUntruncated fails t unless job ran every walker of req to its
// budget and reported each: the lost or stalled shard came back whole.
func checkUntruncated(t *testing.T, job service.Job, req map[string]any) {
	t.Helper()
	if r := job.Result; job.State != service.StateUnsolved || r == nil || r.Truncated || r.CompletedWalkers != req["walkers"] {
		t.Errorf("job %s: state %s, result %+v: want unsolved, untruncated, with all %v walkers", job.ID, job.State, r, req["walkers"])
	}
}

// proc is one child process of the test.
type proc struct {
	url    string // http://ADDR, where it listens
	cmd    *exec.Cmd
	stderr bytes.Buffer  // read only once exited is closed
	exited chan struct{} // closed once Wait has returned err
	err    error
}

// start runs bin/name with args on a free loopback port and returns it
// once its /healthz answers. A port another process took first is
// retried with a fresh one.
func start(t *testing.T, bin, name string, args ...string) *proc {
	t.Helper()
	return startAt(t, filepath.Join(bin, name), func(string) []string { return args })
}

// startAt is start with the arguments built from the address.
func startAt(t *testing.T, path string, args func(addr string) []string) *proc {
	t.Helper()
	for range 5 {
		addr := freeAddr(t)
		p := &proc{url: "http://" + addr, exited: make(chan struct{})}
		p.cmd = exec.Command(path, append([]string{"-addr", addr}, args(addr)...)...)
		p.cmd.Stderr = &p.stderr
		// The child dies with the thread that started it, and so with a
		// test process that dies before its cleanups run.
		p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := p.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go func() {
			p.err = p.cmd.Wait()
			close(p.exited)
		}()
		t.Cleanup(func() {
			p.cmd.Process.Kill()
			<-p.exited
		})
		if ready(t, p.url, p.exited) {
			return p
		}
		if !strings.Contains(p.stderr.String(), "address already in use") {
			t.Fatalf("%s exited before serving: %v\n%s", path, p.err, p.stderr.String())
		}
	}
	t.Fatalf("%s: no free port in 5 tries", path)
	return nil
}

func (p *proc) signal(t *testing.T, sig syscall.Signal) {
	t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatalf("%s: %v: %v", p.url, sig, err)
	}
}

// wait waits for p to exit and returns Wait's error.
func (p *proc) wait(t *testing.T) error {
	t.Helper()
	select {
	case <-p.exited:
		return p.err
	case <-time.After(pollBound):
		t.Fatalf("%s did not exit within %v", p.url, pollBound)
		return nil
	}
}

// drain SIGTERMs a serve process and fails t unless it drains cleanly.
func (p *proc) drain(t *testing.T) {
	t.Helper()
	p.signal(t, syscall.SIGTERM)
	if err := p.wait(t); err != nil || !strings.Contains(p.stderr.String(), "drained cleanly") {
		t.Errorf("serve after SIGTERM: %v\n%s", err, p.stderr.String())
	}
}

// enroll starts n workers of slots each that register with serve and
// returns them by URL once serve counts all n healthy.
func enroll(t *testing.T, bin string, serve *proc, n, slots int) map[string]*proc {
	t.Helper()
	workers := map[string]*proc{}
	for range n {
		w := startAt(t, filepath.Join(bin, "worker"), func(addr string) []string {
			return []string{"-slots", fmt.Sprint(slots), "-coordinator", serve.url, "-advertise", "http://" + addr, "-heartbeat", "500ms"}
		})
		workers[w.url] = w
	}
	poll(t, fmt.Sprintf("%d healthy workers", n), func() bool {
		healthy := 0
		for _, w := range fleet(t, serve) {
			if w.State == "healthy" && workers[w.URL] != nil {
				healthy++
			}
		}
		return healthy == n
	})
	return workers
}

// fleet is serve's fleet table.
func fleet(t *testing.T, serve *proc) []dist.WorkerInfo {
	t.Helper()
	var table struct {
		Workers []dist.WorkerInfo `json:"workers"`
	}
	mustFetch(t, serve.url+"/v1/fleet", nil, &table)
	return table.Workers
}

// fullWorker waits until a worker of the given slots has all of them
// busy and returns its URL.
func fullWorker(t *testing.T, serve *proc, slots int) (url string) {
	t.Helper()
	poll(t, "a worker with its slots busy", func() bool {
		for _, w := range fleet(t, serve) {
			if w.Slots == slots && w.Busy == slots {
				url = w.URL
				return true
			}
		}
		return false
	})
	return url
}

// fleetMetrics is the coordinator's counters in serve's /metrics.
func fleetMetrics(t *testing.T, serve *proc) map[string]int64 {
	t.Helper()
	var st service.Stats
	mustFetch(t, serve.url+"/metrics", nil, &st)
	return st.Fleet
}

// submit posts req async and returns the job's id.
func submit(t *testing.T, serve *proc, req map[string]any) string {
	t.Helper()
	var job service.Job
	if code, body := mustFetch(t, serve.url+"/v1/solve", req, &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, body)
	}
	return job.ID
}

// await long-polls job id until it is terminal, failing t on any
// error.
func await(t *testing.T, base, id string) service.Job {
	t.Helper()
	job, _, err := awaitJob(base, id)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// awaitJob long-polls job id (GET /v1/jobs/{id}?wait=10s, asked again
// while the answer is not terminal) and returns it with the GETs that
// took.
func awaitJob(base, id string) (job service.Job, gets int, err error) {
	for !job.State.Terminal() {
		gets++
		code, body, err := fetch(base+"/v1/jobs/"+id+"?wait=10s", nil, &job)
		if err != nil {
			return job, gets, err
		}
		if code != http.StatusOK {
			return job, gets, fmt.Errorf("job %s: long-poll status %d: %s", id, code, body)
		}
	}
	return job, gets, nil
}

// load submits jobs of the mixed workload from conc clients: job i
// with seed i+1, every asyncEvery-th async and awaited by long-poll;
// a 429 is retried. With exchange the multi-walker jobs run dependent
// walks. It fails t on every job dropped or failed, and returns how
// many jobs were awaited and the GETs they cost.
func load(t *testing.T, base string, exchange bool, jobs, conc, asyncEvery int) (awaited, gets int) {
	t.Helper()
	mix := []map[string]any{
		{"problem": "costas", "size": 8, "walkers": 1},
		{"problem": "costas", "size": 10, "walkers": 2},
		{"problem": "queens", "size": 32, "walkers": 1},
		{"problem": "all-interval", "size": 10, "walkers": 2},
		{"problem": "magic-square", "size": 5, "walkers": 1},
		{"problem": "timetable", "size": 20, "walkers": 2, "params": map[string]int{"slots": 6, "rooms": 4, "teachers": 4}},
	}
	type outcome struct {
		gets int
		err  error
	}
	next, done := make(chan int), make(chan outcome, jobs)
	for range conc {
		go func() {
			for i := range next {
				req := map[string]any{"seed": i + 1, "timeout_ms": 15000, "wait": i%asyncEvery != 0}
				for k, v := range mix[i%len(mix)] {
					req[k] = v
				}
				if exchange && req["walkers"] == 2 {
					req["exchange"] = map[string]any{"enabled": true, "period_iters": 256, "adopt_factor": 1.5}
				}
				job, n, err := solve(base, req)
				if err == nil && job.State == service.StateFailed {
					err = fmt.Errorf("job %s failed: %s", job.ID, job.Error)
				}
				done <- outcome{n, err}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	for range jobs {
		o := <-done
		if o.err != nil {
			t.Error(o.err)
		}
		if o.gets > 0 {
			awaited, gets = awaited+1, gets+o.gets
		}
	}
	return awaited, gets
}

// solve runs req to a terminal state, retrying 429s: waited on the
// POST, or awaited by long-poll. It returns the job and the GETs an
// async one cost.
func solve(base string, req map[string]any) (service.Job, int, error) {
	for retries := 1; ; retries++ {
		var job service.Job
		code, body, err := fetch(base+"/v1/solve", req, &job)
		switch {
		case err != nil:
			return job, 0, err
		case code == http.StatusTooManyRequests:
			// Backpressure: pace the retry rather than spin on it.
			<-time.After(time.Duration(min(retries, 50)) * time.Millisecond)
		case code == http.StatusOK && req["wait"] == true:
			return job, 0, nil
		case code == http.StatusAccepted && req["wait"] == false:
			return awaitJob(base, job.ID)
		default:
			return job, 0, fmt.Errorf("%v: status %d: %s", req, code, body)
		}
	}
}
