package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// syncBuffer is a telemetry sink the test can read while the sampler
// writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// samples decodes every sample recorded so far.
func (b *syncBuffer) samples(t *testing.T) []telemetry.Sample {
	t.Helper()
	b.mu.Lock()
	raw := bytes.Clone(b.buf.Bytes())
	b.mu.Unlock()
	out, err := telemetry.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// metricNames lists a sample's metric names in order.
func metricNames(s telemetry.Sample) []string {
	names := make([]string, len(s.Metrics))
	for i, m := range s.Metrics {
		names[i] = m.Name
	}
	return names
}

// metricValue reads one metric of a sample.
func metricValue(s telemetry.Sample, name string) (int64, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// TestWorkerTelemetrySampler: a worker with a telemetry recorder samples
// every in-flight run's per-walker counters, named by run id and global
// walker index, beside its own gauges, and drops a run's series once
// the run has answered.
func TestWorkerTelemetrySampler(t *testing.T) {
	sink := &syncBuffer{}
	wk := NewWorker(WorkerConfig{Slots: 2, Telemetry: telemetry.NewRecorder(sink), TelemetryInterval: 2 * time.Millisecond})
	srv := httptest.NewServer(wk.Handler())
	t.Cleanup(func() { srv.Close(); wk.Close() })

	// Global walkers 1 and 2 of a three-walker job. Costas 20 takes far
	// longer than this test to solve, so the run is in flight until it
	// is cancelled. The request does not ask for progress: telemetry
	// alone builds the counters.
	const id = "c0000abcd-job000001-s1"
	engine := tunedEngine(t, "costas", 20)
	engine.MaxIterations, engine.MaxRuns = 1<<40, 1
	body, err := json.Marshal(RunRequest{ID: id, Mode: ModeRun, Problem: "costas", Size: 20, Seed: 5,
		TotalWalkers: 3, Start: 1, Count: 2, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("run: status %d", resp.StatusCode)
			}
		}
		answered <- err
	}()

	series := []string{id + "_w0001_cost", id + "_w0001_iter", id + "_w0002_cost", id + "_w0002_iter", "runs_total", "slots_busy"}
	waitSample := func(what string, ok func(telemetry.Sample) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			ss := sink.samples(t)
			if len(ss) > 0 && ok(ss[len(ss)-1]) {
				return
			}
			if time.Now().After(deadline) {
				var last []string
				if len(ss) > 0 {
					last = metricNames(ss[len(ss)-1])
				}
				t.Fatalf("no sample with %s in 10s; last sample: %v", what, last)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitSample("the run's series under way", func(s telemetry.Sample) bool {
		iter, _ := metricValue(s, id+"_w0002_iter")
		busy, _ := metricValue(s, "slots_busy")
		return slices.Equal(metricNames(s), series) && iter > 0 && busy == 2
	})

	if !postCancel(t, srv.URL, id) {
		t.Fatal("the run was not live when cancelled")
	}
	if err := <-answered; err != nil {
		t.Fatal(err)
	}
	waitSample("only the worker gauges", func(s telemetry.Sample) bool {
		runs, _ := metricValue(s, "runs_total")
		busy, _ := metricValue(s, "slots_busy")
		return slices.Equal(metricNames(s), []string{"runs_total", "slots_busy"}) && runs == 1 && busy == 0
	})
	for _, s := range sink.samples(t) {
		for _, name := range metricNames(s) {
			if name != "runs_total" && name != "slots_busy" && !strings.HasPrefix(name, id+"_w000") {
				t.Fatalf("unexpected series %q", name)
			}
		}
	}
}
