// Package httpjson is the JSON body discipline of every HTTP hop in
// this repository (the solve service, and the fleet's workers, agents
// and coordinator).
//
// Server side, Write encodes a reply into a pooled buffer and sends it
// in one Write with its Content-Length, and Decode reads a request
// strictly: bounded, no unknown fields, nothing but whitespace after
// the value. Client side, Call is the one way a fleet message is sent:
// it encodes the request, reads every reply to EOF into a pooled
// buffer (so the keep-alive connection goes back to the client's pool
// whatever the status), and turns a non-200 reply into a *StatusError.
// One buffer a message, whatever its size, and no streaming encoder or
// decoder to allocate.
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
// Write of a known length. A value that does not encode is answered as
// a 500 with an {"error": ...} body instead. Responses are for
// programs; a person reading one pipes it through jq.
func Write(w http.ResponseWriter, code int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
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

// errTrailing is Decode's answer to a body with more after its value.
var errTrailing = errors.New("data after the JSON value")

// Decode reads one JSON value from r into v, strictly: at most limit
// bytes of r (0 = unbounded), no field v does not have, and nothing but
// whitespace after the value. A misspelt or retired field would
// otherwise be dropped and its setting left at a default, and a second
// object silently ignored. Callers wrap the error in their own
// bad-request type.
func Decode(r io.Reader, limit int64, v any) error {
	if limit > 0 {
		r = io.LimitReader(r, limit)
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailing
	}
	return nil
}

// read reads r to EOF and unmarshals the body into v. Reading to EOF
// is what lets an HTTP client hand the keep-alive connection back to
// its pool. Unmarshal copies every string it keeps, so v holds no
// reference to the buffer once read returns.
func read(r io.Reader, v any) error {
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(r); err != nil {
		return err
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
// body (no body when nil). A 200 reply is unmarshalled into out (read
// and dropped when out is nil), bounded by limit bytes (0 = unbounded);
// any other status is returned as a *StatusError. Every reply is read
// to EOF, so the connection is reused whatever the outcome; an error
// reply is read up to 64 KB. A failure of client.Do comes back as the
// *url.Error it is, so a caller tells a lost peer from one that
// answered with errors.As.
func Call(ctx context.Context, client *http.Client, method, url string, in, out any, limit int64) error {
	var body io.Reader
	if in != nil {
		payload, err := json.Marshal(in)
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
		_ = read(io.LimitReader(resp.Body, maxErrorLen), &e)
		return &StatusError{Code: resp.StatusCode, Msg: e.Error}
	}
	var r io.Reader = resp.Body
	if limit > 0 {
		r = io.LimitReader(r, limit)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, r)
	} else {
		err = read(r, out)
	}
	if err != nil {
		return fmt.Errorf("reading the reply: %w", err)
	}
	return nil
}
