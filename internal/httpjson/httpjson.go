// Package httpjson is the JSON body discipline of every HTTP hop in
// this repository (the solve service, and the fleet's workers, agents
// and coordinator).
//
// Server side, Write encodes a reply into a pooled buffer and sends it
// in one Write with its Content-Length, and Decode reads a request
// once into a pooled buffer and decodes it strictly: bounded (a longer
// body is refused, not cut short), no unknown fields, nothing but
// whitespace after the value. Client side, Call is the one way a fleet
// message is sent: it encodes the request, reads every reply to EOF
// into a pooled buffer (so the keep-alive connection goes back to the
// client's pool whatever the status), and turns a non-200 reply into a
// *StatusError. A reply over its cap is refused, as a body is, and
// drops its connection. One pooled buffer a message, whatever its size.
//
// A hot message may skip reflection on either side. Write and Call
// send an Appender's own bytes, which must be json.Marshal's;
// AppendString, AppendFloat and AppendTime write a field as
// encoding/json does. Decode and Call offer the body to a FastReader
// first, which reads the canonical shape of its message with a Lexer
// and refuses anything else to encoding/json, so every rejection and
// its error text stay encoding/json's. DecodeFunc hands the body to the
// caller's own reader instead, so that the value read need not escape
// to the heap, and Call sends a []byte the caller encoded as it is. The solve service's request and
// job record are two such messages: for a costas-9 job on a 2-vCPU
// Xeon (service.BenchmarkFrontDoorCodec, -cpu 1, three runs) the
// request read went from 2.4–3.6 µs and 10 allocations to 0.52–0.61 µs
// and 3, and the reply from 3.3–4.4 µs and 7 allocations to 1.2–1.4 µs
// and 4. The fleet's run request, run reply and cancel ack are the
// other three (dist.BenchmarkFleetJob, costas-9: 39.8 to 35.7 KB and
// 432 to 376 allocations a job, with a one-walker shard run deriving
// no context; 34.1 KB and 372 with the run request written on the
// stack and read into a value that stays there, and the reply written
// from the shard's result).
package httpjson

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// bufs holds the buffers bodies are encoded into and read into.
var bufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooled keeps a rare large body's buffer out of the pool.
const maxPooled = 64 << 10

// maxErrorLen bounds how much of a non-200 reply Call reads: an error
// body is a few dozen bytes.
const maxErrorLen = 64 << 10

func getBuf() *bytes.Buffer {
	buf := bufs.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooled {
		bufs.Put(buf)
	}
}

// Write answers v as one line of compact JSON with status code, in one
// Write of a known length: an Appender's own bytes, anything else as
// encoding/json writes it. A value that does not encode is answered as
// a 500 with an {"error": ...} body instead. Responses are for
// programs; a person reading one pipes it through jq.
func Write(w http.ResponseWriter, code int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if err := encode(buf, v); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		// A map of strings always encodes.
		_ = json.NewEncoder(buf).Encode(map[string]string{"error": "encoding the response: " + err.Error()})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	// A failed write is a client that went away; there is no one to tell.
	_, _ = w.Write(buf.Bytes())
}

// encode writes v into buf as one line of compact JSON: an Appender's
// own bytes, anything else, or a value its Appender declines, as
// encoding/json writes it.
func encode(buf *bytes.Buffer, v any) error {
	if a, ok := v.(Appender); ok {
		if b := a.AppendJSON(buf.AvailableBuffer()); len(b) > 0 {
			buf.Write(append(b, '\n'))
			return nil
		}
	}
	return json.NewEncoder(buf).Encode(v)
}

// errTrailing is Decode's answer to a body with more after its value.
var errTrailing = errors.New("data after the JSON value")

// Decode reads one JSON value from r into v, strictly: at most limit
// bytes of r (a longer body is an error, not cut short),
// no field v does not have, and nothing but whitespace after the value.
// A misspelt or retired field would otherwise be dropped and its
// setting left at a default, and a second object silently ignored. The
// body is read once into a pooled buffer; a v that is a FastReader is
// offered it first, and encoding/json reads what it refuses. Callers
// wrap the error in their own bad-request type.
func Decode(r io.Reader, limit int64, v any) error {
	return DecodeFunc(r, limit, func(body []byte) error {
		if fr, ok := v.(FastReader); ok && fr.ReadJSON(body) {
			return nil
		}
		return Strict(body, v)
	})
}

// DecodeFunc reads a body as Decode does and hands it to read, whose
// error it returns. The body is the pooled buffer, valid only until
// read returns: read decodes it — with a fast reader into a value of
// its own, which then need not escape to the heap, and with Strict
// into a fresh value when that refuses — and keeps no reference to it.
func DecodeFunc(r io.Reader, limit int64, read func(body []byte) error) error {
	buf := getBuf()
	defer putBuf(buf)
	if err := readAll(buf, r, limit, "body"); err != nil {
		return err
	}
	return read(buf.Bytes())
}

// Strict decodes body into v as Decode does: no field v does not have,
// and nothing but whitespace after the value. The decoder copies every
// string it keeps, so v holds no reference to body once Strict returns.
func Strict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailing
	}
	return nil
}

// readAll reads r to EOF into buf, refusing a body of more than limit
// bytes as an error naming what it read; it reads one byte past the
// limit to tell.
func readAll(buf *bytes.Buffer, r io.Reader, limit int64, what string) error {
	if _, err := buf.ReadFrom(io.LimitReader(r, limit+1)); err != nil {
		return err
	}
	if int64(buf.Len()) > limit {
		return fmt.Errorf("%s exceeds %d bytes", what, limit)
	}
	return nil
}

// read reads a reply of at most limit bytes to EOF and
// unmarshals it into v, or drops it when v is nil. Reading to EOF is
// what lets an HTTP client hand the keep-alive connection back to its
// pool; an over-limit reply is refused after limit+1 bytes and so
// drops its connection. A v that is a FastReader is offered the reply
// first. Unmarshal copies every string it keeps, so v holds no
// reference to the buffer once read returns.
func read(r io.Reader, limit int64, v any) error {
	buf := getBuf()
	defer putBuf(buf)
	if err := readAll(buf, r, limit, "reply"); err != nil || v == nil {
		return err
	}
	if fr, ok := v.(FastReader); ok && fr.ReadJSON(buf.Bytes()) {
		return nil
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// StatusError is a reply whose status was not 200. Msg is the reply's
// {"error": ...} text, empty when the body carried none.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return e.Msg
	}
	return "status " + strconv.Itoa(e.Code)
}

// Call sends one request and reads its reply. in is sent as the JSON
// body (no body when nil): a []byte as it is — JSON the caller encoded,
// into a slice it hands over and no longer touches — an Appender's own
// bytes, anything else as json.Marshal writes it. A 200 reply is unmarshalled into out (read
// and dropped when out is nil), a FastReader offered it first; any
// other status is returned as a *StatusError. Every reply is read to
// EOF, so the connection is reused whatever the outcome, unless it is
// longer than its cap: limit bytes for a 200, 64 KB for
// an error. Such a reply is refused, not cut short, and drops its
// connection. A failure of client.Do comes back as the *url.Error it
// is, so a caller tells a lost peer from one that answered with
// errors.As.
func Call(ctx context.Context, client *http.Client, method, url string, in, out any, limit int64) error {
	var body io.Reader
	if payload, ok := in.([]byte); ok {
		body = bytes.NewReader(payload)
	} else if in != nil {
		buf := getBuf()
		err := encode(buf, in)
		// A fresh slice, not the pooled buffer: the Transport may read
		// a request body after Do returns, and re-reads it through
		// GetBody to retry a stale keep-alive connection. The newline
		// encode ends with is not sent.
		payload := bytes.Clone(bytes.TrimSuffix(buf.Bytes(), []byte{'\n'}))
		putBuf(buf)
		if err != nil {
			return fmt.Errorf("encoding the request: %w", err)
		}
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		// An unreadable error body leaves Msg empty.
		_ = read(resp.Body, maxErrorLen, &e)
		return &StatusError{Code: resp.StatusCode, Msg: e.Error}
	}
	if err := read(resp.Body, limit, out); err != nil {
		return fmt.Errorf("reading the reply: %w", err)
	}
	return nil
}
