package service

import (
	"bytes"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/httpjson"
)

// TestSolveBodyReadJSON: the fast reader takes the bodies clients write,
// to the value the strict decoder makes of them, and refuses, leaving
// the body untouched, every shape it leaves to the strict decoder.
func TestSolveBodyReadJSON(t *testing.T) {
	for _, raw := range []string{
		`{}`,
		`{"problem":"costas","size":9,"walkers":2,"seed":1,"wait":true}`,
		`{"problem":"timetable","size":20,"params":{"slots":6,"rooms":4,"teachers":4},"walkers":2,"seed":18446744073709551615,"wait":false}`,
		" {\"problem\" : \"queens\",\n\t\"params\":{},\"max_iterations\":-9223372036854775808,\"max_runs\":-0,\"timeout_ms\":0,\"tenant\":\"a<b&c\",\"priority\":\"low\"}\r\n",
	} {
		var fast solveBody
		if !fast.ReadJSON([]byte(raw)) {
			t.Errorf("%s: refused", raw)
			continue
		}
		var strict strictBody
		if err := httpjson.Decode(bytes.NewReader([]byte(raw)), maxSolveBodyLen, &strict); err != nil {
			t.Fatalf("%s: strict decoder: %v", raw, err)
		}
		if !reflect.DeepEqual(solveBody(strict), fast) {
			t.Errorf("%s: fast reader %+v, strict decoder %+v", raw, fast, strict)
		}
	}
	for _, raw := range []string{
		``,
		`null`,
		`{"problem":"costas"`,
		`{"problem":"costas",}`,
		`{"problem":"costas"} {}`,
		`{"problem":"costas","problem":"queens"}`,
		`{"Problem":"costas"}`,
		`{"problem":"cost\u0061s"}`,
		`{"problem":"costäs"}`,
		`{"problem":null}`,
		`{"size":9.0}`,
		`{"size":1e1}`,
		`{"size":09}`,
		`{"size":9223372036854775808}`,
		`{"seed":-1}`,
		`{"seed":18446744073709551616}`,
		`{"wait":truth}`,
		`{"params":{"slots":6,"slots":7}}`,
		`{"params":{"slots":{"min":6}}}`,
		`{"exchange":{"enabled":true}}`,
		`{"autosize":{}}`,
		`{"walker":2}`,
	} {
		body := solveBody{Wait: true}
		if body.ReadJSON([]byte(raw)) {
			t.Errorf("%s: taken by the fast reader", raw)
		}
		if !reflect.DeepEqual(body, solveBody{Wait: true}) {
			t.Errorf("%s: refused, but the body became %+v", raw, body)
		}
	}
}

// BenchmarkFrontDoorCodec times the front door's two messages alone: a
// costas request body read by decodeSolveBody, and a solved costas job
// record sent by httpjson.Write.
func BenchmarkFrontDoorCodec(b *testing.B) {
	body := []byte(`{"problem":"costas","size":9,"walkers":2,"seed":1,"wait":true}`)
	b.Run("decode", func(b *testing.B) {
		rd := bytes.NewReader(body)
		b.ReportAllocs()
		for b.Loop() {
			rd.Reset(body)
			if _, err := decodeSolveBody(rd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write", func(b *testing.B) {
		res := wireResults[1]
		at := time.Date(2026, 10, 17, 7, 4, 54, 123_456_789, time.UTC)
		job := Job{
			ID: "j000001", State: StateSolved,
			Request:     Request{Problem: "costas", Size: 9, Walkers: 2, Seed: 1, Tenant: "default"},
			SubmittedAt: at, StartedAt: at.Add(20 * time.Microsecond), FinishedAt: at.Add(50 * time.Microsecond),
			Result: condenseResult(&res),
		}
		w := &discard{hdr: make(http.Header)}
		b.ReportAllocs()
		for b.Loop() {
			httpjson.Write(w, http.StatusOK, job)
		}
	})
}
