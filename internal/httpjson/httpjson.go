// Package httpjson is the JSON body codec both HTTP servers of this
// repository (the solve service and the fleet's workers and
// coordinator) answer and read with: a reply is encoded into a pooled
// buffer and sent in one Write with its Content-Length, and a reply is
// read to EOF into a pooled buffer before it is unmarshalled. One
// buffer a message, whatever its size, and no streaming encoder or
// decoder to allocate.
package httpjson

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// bufs holds the buffers bodies are encoded into and read into.
var bufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooled keeps a rare large body's buffer out of the pool.
const maxPooled = 64 << 10

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

// Read reads r to EOF and unmarshals the body into v. Reading to EOF
// is what lets an HTTP client hand the keep-alive connection back to
// its pool; a caller that must bound the body wraps r in an
// io.LimitReader. Unmarshal copies every string it keeps, so v holds no
// reference to the buffer once Read returns.
func Read(r io.Reader, v any) error {
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), v)
}
