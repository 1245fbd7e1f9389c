package service

import (
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/gridmeta/hybridcat/internal/obs"
)

// The debug and observability surface:
//
//	GET /metrics          Prometheus 0.0.4 text exposition of the
//	                      catalog's metrics registry (?format=json for
//	                      the JSON rendering); 404 when metrics are off.
//	GET /debug/tracez     the slowest recent query traces with their
//	                      Figure-4 stage timings (?reset=1 clears the
//	                      ring after snapshotting); 404 when tracing is
//	                      off.
//	GET /debug/cachez     read-cache counters + generations.
//	GET /debug/durabilityz  WAL/checkpoint/recovery counters (zeroes
//	                      when the catalog is not durable).
//
// Every JSON debug endpoint goes through debugHandler so they share
// the standard writeJSON/writeErr content-type and error shape instead
// of hand-rolling responses.

// debugHandler adapts a snapshot function into the service's standard
// JSON response path: the returned value is encoded with writeJSON on
// success, and an error becomes the usual {"error": ...} body with 404
// (debug snapshots fail only when the underlying subsystem is off).
func debugHandler(fn func(r *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err := fn(r)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	}
}

// handleMetrics serves the metrics registry. The default rendering is
// the Prometheus text exposition format so a stock scraper (or curl)
// can read it; ?format=json returns the structured State instead.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.backend().Metrics()
	if reg == nil {
		writeErr(w, http.StatusNotFound, errors.New("service: metrics disabled"))
		return
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WriteProm(w)
}

// handleTracez snapshots the slow-query trace ring, slowest first.
func (s *Server) handleTracez(r *http.Request) (any, error) {
	ring := s.cat().Traces()
	if ring == nil {
		return nil, errors.New("service: query tracing disabled")
	}
	out := map[string]any{
		"enabled": true,
		"offered": ring.Offered(),
		"traces":  ring.Slowest(),
	}
	if r.URL.Query().Get("reset") == "1" {
		ring.Reset()
	}
	return out, nil
}

// statusWriter captures the response status for the request counter.
// Handlers that never call WriteHeader implicitly return 200.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-endpoint metrics: a latency
// histogram http_request_nanos{endpoint} (created once, here) and a
// request counter http_requests_total{endpoint,code}, resolved once per
// status code the endpoint answers with (see codeCounters). With
// metrics off the handler is returned untouched — zero overhead.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reg := s.backend().Metrics()
	if reg == nil {
		return h
	}
	lat := reg.Histogram("http_request_nanos", obs.L("endpoint", endpoint))
	requests := &codeCounters{reg: reg, endpoint: endpoint}
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		lat.Observe(time.Since(start).Nanoseconds())
		requests.get(sw.code).Inc()
	}
}

// codeCounters is one endpoint's http_requests_total counters by status
// code. The registry formats a label identity and takes its lock on
// every lookup, so each code is looked up once and kept here; a code
// appears in the registry only once the endpoint has answered with it.
// Two requests racing on a new code get the same counter from the
// registry.
type codeCounters struct {
	reg      *obs.Registry
	endpoint string
	byCode   sync.Map // int status code -> *obs.Counter
}

func (cc *codeCounters) get(code int) *obs.Counter {
	if c, ok := cc.byCode.Load(code); ok {
		return c.(*obs.Counter)
	}
	c := cc.reg.Counter("http_requests_total", obs.L("endpoint", cc.endpoint), obs.L("code", strconv.Itoa(code)))
	cc.byCode.Store(code, c)
	return c
}

// route registers an instrumented handler behind the replica staleness
// middleware; the mux pattern doubles as the endpoint label, so the
// label set is fixed at registration time.
func (s *Server) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, s.instrument(pattern, s.staleness(h)))
}
