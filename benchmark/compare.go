package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readResults loads an -o file: the end-to-end values of every run in
// it, keyed by workload and metric.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	values := map[string]map[string][]float64{}
	dec := json.NewDecoder(f)
	for {
		var res result
		if err := dec.Decode(&res); errors.Is(err, io.EOF) {
			return values, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if res.Trace {
			continue
		}
		if values[res.Workload] == nil {
			values[res.Workload] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			values[res.Workload][name] = append(values[res.Workload][name], m.Value)
		}
	}
}

// compareFiles prints, for every workload and end-to-end metric, the
// median of the runs in A and in B, the wider of the two sides'
// run-to-run spreads, and how far B moved. It marks every pair that
// moved by more than the metric's bound, in either direction: between
// two sets of runs of the same code any such pair is a failure of
// repeatability, between a parent and a change it is the regression or
// the gain. A workload only one side ran is outside too. A pair within
// its bound whose spread is wider than the bound is marked unresolved:
// these runs cannot tell "unchanged" from "moved by the bound". The exit
// code is 1 if any pair is outside its bound.
func compareFiles(boundsPath, pathA, pathB string, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile(boundsPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	outside, unresolved := 0, 0
	fmt.Fprintf(stdout, "%-12s %-20s %14s %3s %14s %3s %7s %8s %6s\n", "workload", "metric", "A median", "n", "B median", "n", "spread", "change", "bound")
	for _, w := range bf.Workloads {
		for _, def := range bf.EndToEnd {
			va, vb := a[w.Name][def.Name], b[w.Name][def.Name]
			if len(va) == 0 && len(vb) == 0 {
				continue // neither side ran this workload
			}
			if len(va) == 0 || len(vb) == 0 {
				side := "B"
				if len(va) == 0 {
					side = "A"
				}
				fmt.Fprintf(stdout, "%-12s %-20s missing from %s\n", w.Name, def.Name, side)
				outside++
				continue
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / ma
			spread := max(quartileSpread(va), quartileSpread(vb))
			verdict := ""
			switch {
			case change > def.Bound || change < -def.Bound:
				verdict = "better"
				if (change > 0) == (def.Better == "lower") {
					verdict = "worse"
				}
				verdict = "  OUTSIDE (" + verdict + ")"
				outside++
			case spread > def.Bound:
				verdict = "  unresolved"
				unresolved++
			}
			fmt.Fprintf(stdout, "%-12s %-20s %14.4f %3d %14.4f %3d %6.1f%% %+7.2f%% %5.0f%%%s\n",
				w.Name, def.Name, ma, len(va), mb, len(vb), 100*spread, 100*change, 100*def.Bound, verdict)
		}
	}
	if unresolved > 0 {
		fmt.Fprintf(stdout, "%d pairs unresolved: within the bound, but the runs spread wider than it\n", unresolved)
	}
	if outside > 0 {
		fmt.Fprintf(stdout, "%d pairs outside their bounds\n", outside)
		return 1
	}
	fmt.Fprintln(stdout, "every pair within its bound")
	return 0
}
