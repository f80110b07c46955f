package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"strings"
)

// Handler exposes a telemetry set over HTTP for live introspection:
//
//	/metrics      Prometheus text exposition of the registry
//	/debug/pprof/ the standard Go profiler endpoints
//
// /metrics evaluates function gauges at scrape time (see the package's
// concurrency contract).
func Handler(s *Set) http.Handler { return HandlerWith(s, nil) }

// HandlerWith is Handler plus caller-supplied routes (e.g. the block
// server's /debug/trace exemplar dump, or the simulator's recorded
// windows and events) mounted on the same mux; the index at / lists
// every mounted route. Extra patterns must not collide with the
// built-in ones.
func HandlerWith(s *Set, extra map[string]http.Handler) http.Handler {
	mux := http.NewServeMux()
	routes := []string{"/metrics", "/debug/pprof/"}
	for pattern, h := range extra {
		mux.Handle(pattern, h)
		routes = append(routes, pattern)
	}
	slices.Sort(routes)
	index := "adapt telemetry\n\n" + strings.Join(routes, "\n") + "\n"
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, index)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = s.Registry.WriteProm(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts a debug HTTP server for the set on addr in the
// background and returns the server plus the bound address (useful
// with a ":0" listener). extra routes, if any, mount alongside the
// built-in endpoints. The caller owns shutdown via server.Close.
func Serve(addr string, s *Set, extra map[string]http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: HandlerWith(s, extra)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
