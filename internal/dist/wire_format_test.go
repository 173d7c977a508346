package dist

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/multiwalk"
)

// wireFormatFile pins the coordinator→worker run request: the body
// shardRequest builds for each case, field names and values.
const wireFormatFile = "testdata/run_request_wire.json"

// wireFormatCases are the shard requests the wire format file pins, one
// per shape of job the coordinator sends.
func wireFormatCases(t *testing.T) map[string]RunRequest {
	t.Helper()
	const epoch = "c0000abcd"
	shard := func(id string, start, count int) *assignment {
		return &assignment{start: start, count: count, runID: epoch + "-" + id}
	}

	queens := tunedEngine(t, "queens", 8)
	queens.InitialConfig = []int{3, 6, 2, 7, 1, 4, 0, 5}

	return map[string]RunRequest{
		"tuned-costas": shardRequest(ModeRun,
			&JobSpec{Problem: "costas", Size: 12, Walkers: 2, Seed: 42, Engine: tunedEngine(t, "costas", 12)},
			shard("job000001-s0", 0, 2), &shardParams{}),
		"queens-initial-config": shardRequest(ModeVirtual,
			&JobSpec{Problem: "queens", Size: 8, Walkers: 3, Seed: 7, Engine: queens},
			shard("job000002-s1", 1, 2), &shardParams{deadline: 1500}),
		"exchange": shardRequest(ModeRun,
			&JobSpec{Problem: "magic-square", Size: 6, Walkers: 2, Seed: 11, Engine: tunedEngine(t, "magic-square", 6),
				Exchange: multiwalk.ExchangeOptions{Enabled: true, Period: 64, AdoptFactor: 1.5, PerturbSwaps: 3}},
			shard("job000004-s0", 0, 1), &shardParams{
				boardURL:    "http://127.0.0.1:9190/v1/runs/" + epoch + "-job000004/board",
				boardSyncMS: 2,
				deadline:    60000,
			}),
		"speculating": shardRequest(ModeRun,
			&JobSpec{Problem: "costas", Size: 14, Walkers: 4, Seed: 13, Engine: tunedEngine(t, "costas", 14)},
			shard("job000005-s1", 2, 2), &shardParams{
				deadline:     30000,
				progressBase: "http://127.0.0.1:9190",
				progressMS:   100,
			}),
	}
}

// TestRunRequestWireFormat pins the body of every kind of shard request
// the coordinator sends. Each case is compared as a decoded JSON object,
// so field order does not matter, and decoding the pinned body must
// give back the request exactly: a renamed, dropped or retyped field
// shows up as a diff of the testdata file.
func TestRunRequestWireFormat(t *testing.T) {
	raw, err := os.ReadFile(wireFormatFile)
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]json.RawMessage
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	cases := wireFormatCases(t)
	if len(pinned) != len(cases) {
		t.Errorf("%s pins %d cases, the test builds %d", wireFormatFile, len(pinned), len(cases))
	}
	for name, req := range cases {
		want, ok := pinned[name]
		if !ok {
			t.Errorf("%s: no pinned body", name)
			continue
		}
		got, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var gotObj, wantObj map[string]any
		if err := json.Unmarshal(got, &gotObj); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &wantObj); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotObj, wantObj) {
			t.Errorf("%s: request body changed\n got: %s\nwant: %s", name, got, compact(t, want))
		}
		decoded, err := DecodeRunRequest(bytes.NewReader(want))
		if err != nil {
			t.Errorf("%s: pinned body does not decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(decoded, req) {
			t.Errorf("%s: decoding the pinned body gives\n%+v\nwant\n%+v", name, decoded, req)
		}
	}
}

func compact(t *testing.T, raw []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
