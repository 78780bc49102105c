package rib

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"unicode"
)

// Server exposes a RIB over HTTP in the gNMI subscribe spirit with
// plain-JSON mechanics, so any HTTP client (curl, gnmic-style tooling,
// the daemon smoke test) can consume it:
//
//	GET /subscribe?path=/topology   NDJSON batch stream: one initial
//	                                sync line, then one line per install
//	GET /snapshot?path=/fib         canonical snapshot document
//	GET /stats                      serving-layer counters
//	GET /healthz                    liveness + current generation
//
// Streams are flushed per batch and end when the client disconnects.
// Additional handlers (the observability plane's /metrics and /events)
// mount onto the same mux through Handle.
type Server struct {
	rib   *RIB
	extra map[string]http.Handler
}

// NewServer wraps a RIB for HTTP serving.
func NewServer(r *RIB) *Server { return &Server{rib: r} }

// Handle mounts an extra handler on the server's mux under the given
// ServeMux pattern (e.g. "GET /metrics"). Call before Handler; later
// calls with the same pattern replace the handler.
func (s *Server) Handle(pattern string, h http.Handler) {
	if s.extra == nil {
		s.extra = make(map[string]http.Handler)
	}
	s.extra[pattern] = h
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /subscribe", s.subscribe)
	mux.HandleFunc("GET /snapshot", s.snapshot)
	mux.HandleFunc("GET /stats", s.stats)
	mux.HandleFunc("GET /healthz", s.healthz)
	for pattern, h := range s.extra {
		mux.Handle(pattern, h)
	}
	return mux
}

// maxPathLen bounds the ?path= prefix. Every leaf path is far shorter,
// and the prefix is a client-chosen key of the per-generation view cache.
const maxPathLen = 256

// pathParam extracts and validates the ?path= prefix (default "/").
func pathParam(req *http.Request) (string, error) {
	p := req.URL.Query().Get("path")
	if p == "" {
		return "/", nil
	}
	if len(p) > maxPathLen {
		return "", fmt.Errorf("path is %d bytes long, the limit is %d", len(p), maxPathLen)
	}
	if i := strings.IndexFunc(p, unicode.IsControl); i >= 0 {
		return "", fmt.Errorf("path has a control character at byte %d", i)
	}
	if p[0] != '/' {
		return "", fmt.Errorf("path %q must start with /", p)
	}
	return p, nil
}

func (s *Server) subscribe(w http.ResponseWriter, req *http.Request) {
	prefix, err := pathParam(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	sub := s.rib.Subscribe(prefix)
	defer sub.Close()
	for {
		select {
		case v, ok := <-sub.views:
			if !ok {
				return
			}
			if _, err := w.Write(s.rib.line(v)); err != nil {
				return // client went away
			}
			flusher.Flush()
		case <-req.Context().Done():
			return
		}
	}
}

func (s *Server) snapshot(w http.ResponseWriter, req *http.Request) {
	prefix, err := pathParam(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.rib.Current().Canonical(prefix))
}

func (s *Server) stats(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.rib.Stats())
}

func (s *Server) healthz(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"gen\":%d}\n", s.rib.Current().Gen)
}
