package telemetry

import (
	"net/http"
	"net/http/pprof"
)

// AttachPprof mounts the net/http/pprof handlers under /debug/pprof/ on
// mux. It exists (rather than importing net/http/pprof for its side effect)
// so the profiling surface lands only on the mux the caller chose — the
// maccd -debug-addr listener, never the production one — and never on
// http.DefaultServeMux.
func AttachPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
