package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"repro/internal/telemetry"
)

// defineFTDCDecode is the ftdc-decode subcommand: it expands an
// FTDC-style telemetry file (the schema-delta encoding of
// internal/telemetry, written by serve -telemetry and worker
// -telemetry) into CSV on stdout: one column per metric name ever
// observed, one row per sample, empty cells where a sample's schema
// lacked the column. A torn tail — the recorder was mid-frame when the
// process stopped — is normal for live captures; the complete prefix
// decodes and the tear is reported on stderr.
func defineFTDCDecode(*flag.FlagSet) action { return runFTDCDecode }

func runFTDCDecode(_ context.Context, path string, stdout, stderr io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	samples, derr := telemetry.Decode(f)
	if derr != nil && !errors.Is(derr, telemetry.ErrCorrupt) {
		return derr
	}

	names := make(map[string]bool)
	for _, s := range samples {
		for _, m := range s.Metrics {
			names[m.Name] = true
		}
	}
	cols := make([]string, 0, len(names))
	for n := range names {
		cols = append(cols, n)
	}
	sort.Strings(cols)
	idx := make(map[string]int, len(cols))
	for i, n := range cols {
		idx[n] = i
	}

	w := csv.NewWriter(stdout)
	if err := w.Write(append([]string{"ts_unix_ms"}, cols...)); err != nil {
		return err
	}
	row := make([]string, len(cols)+1)
	for _, s := range samples {
		for i := range row {
			row[i] = ""
		}
		row[0] = strconv.FormatInt(s.TS.UnixMilli(), 10)
		for _, m := range s.Metrics {
			row[idx[m.Name]+1] = strconv.FormatInt(m.Value, 10)
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	if derr != nil {
		fmt.Fprintf(stderr, "experiments: %s: torn tail after %d complete samples (live capture?)\n", path, len(samples))
	}
	return nil
}
