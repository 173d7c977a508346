// Package profiling serves net/http/pprof for the long-running commands
// (cmd/serve -pprof, cmd/worker -pprof) on a listener of its own, so
// that profiles can stay on loopback while the API port is public, and
// so that a profile of the service under load is one flag away:
//
//	serve -pprof 127.0.0.1:6060 &
//	seq 1 200 | xargs -P 8 -I{} curl -s -o /dev/null localhost:8080/v1/solve -d '{"problem":"costas","size":10,"seed":{},"wait":true}'
//	go tool pprof -top http://127.0.0.1:6060/debug/pprof/profile?seconds=20
package profiling

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Serve listens on addr and serves /debug/pprof/ there until stop is
// called. It returns the address actually bound (addr may name port 0);
// stop closes the listener and every open connection — a CPU profile
// still streaming is cut — and returns once the serving goroutine has
// exited.
func Serve(addr string) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // always ErrServerClosed: stop is the only way out
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close() // the listener's close error has no reader
		<-done
	}, nil
}
