package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"mipp"
	"mipp/api"
	"mipp/store"
)

// Span layers. Every span is recorded by the benchmark's own code around a
// call into a layer's public surface; nothing inside the program is traced.
const (
	layerClient   = "client" // around a mipp/client call
	layerRouter   = "router" // around router.Router.ServeHTTP
	layerServer   = "server" // around server.Server.ServeHTTP
	layerStorePut = "store.put"
	layerStoreGet = "store.get"
	layerProfiler = "profiler" // around Profiler.Profile
)

// span is one timed call. Spans of one client operation share its request
// ID, which the client sends as X-Request-Id and the router forwards to
// every replica sub-request.
type span struct {
	Layer string `json:"layer"`
	Route string `json:"route,omitempty"`
	RID   string `json:"rid,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Bytes is the response body size for HTTP spans, the uop count for
	// profiler spans.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay no tracing cost.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is nanoseconds since the recorder's epoch on the monotonic clock.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timed wraps a layer's http.Handler in a span per request; with a nil
// recorder it returns the handler unchanged.
func timed(rec *recorder, layer string, next http.Handler) http.Handler {
	if rec == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		start := rec.now()
		next.ServeHTTP(cw, r)
		rec.add(span{Layer: layer, Route: routeOf(r), RID: r.Header.Get(api.RequestIDHeader),
			Start: start, End: rec.now(), Bytes: cw.n})
	})
}

// routeOf names a request by method and path pattern, with search job IDs
// folded so spans of different jobs share a route.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	if rest, ok := strings.CutPrefix(p, "/v1/search/"); ok {
		if strings.HasSuffix(rest, "/events") {
			p = "/v1/search/{id}/events"
		} else {
			p = "/v1/search/{id}"
		}
	}
	return r.Method + " " + p
}

// countingWriter counts body bytes and keeps streamed responses flowing.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// tracedStore is the store seam with a span around every Put and Get.
type tracedStore struct {
	*store.Store
	rec *recorder
}

func (s tracedStore) Put(name string, p *mipp.Profile) (mipp.ProfileStoreInfo, error) {
	start := s.rec.now()
	info, err := s.Store.Put(name, p)
	s.rec.add(span{Layer: layerStorePut, Route: name, Start: start, End: s.rec.now()})
	return info, err
}

func (s tracedStore) Get(name string) (*mipp.Profile, bool, error) {
	start := s.rec.now()
	p, ok, err := s.Store.Get(name)
	s.rec.add(span{Layer: layerStoreGet, Route: name, Start: start, End: s.rec.now()})
	return p, ok, err
}

// profileStore returns st as the engine's store seam, traced when rec is set.
func profileStore(st *store.Store, rec *recorder) mipp.ProfileStore {
	if rec == nil {
		return st
	}
	return tracedStore{Store: st, rec: rec}
}

// interval is a half-open [start, end) stretch of time.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the union of ivs covers. Child
// spans can overlap (the router's concurrent sub-requests), so they are
// merged before measuring.
func covered(lo, hi int64, ivs []interval) int64 {
	var total int64
	for _, iv := range unionOf(ivs) {
		if s, e := max(iv.start, lo), min(iv.end, hi); s < e {
			total += e - s
		}
	}
	return total
}

// selfTime is the time the parents cover that none of the children do:
// a layer's own work, with the layers it calls subtracted.
func selfTime(parents, children []interval) int64 {
	var total int64
	for _, p := range unionOf(parents) {
		total += p.end - p.start - covered(p.start, p.end, children)
	}
	return total
}

// unionOf merges overlapping intervals into disjoint ones.
func unionOf(ivs []interval) []interval {
	s := slices.Clone(ivs)
	slices.SortFunc(s, func(a, b interval) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	var out []interval
	for _, iv := range s {
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			out[n-1].end = max(out[n-1].end, iv.end)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// opSpans groups the HTTP spans of primary operations (request IDs with
// the primary prefix) by request ID and layer.
func opSpans(spans []span) map[string]map[string][]interval {
	ops := make(map[string]map[string][]interval)
	for _, s := range spans {
		if !strings.HasPrefix(s.RID, primaryRID) {
			continue
		}
		m := ops[s.RID]
		if m == nil {
			m = make(map[string][]interval)
			ops[s.RID] = m
		}
		m[s.Layer] = append(m[s.Layer], interval{s.Start, s.End})
	}
	return ops
}

// httpLayers is the per-operation self time of the client, router and
// server layers, averaged over primary operations, plus the router's
// fan-out (replica sub-requests per routed request).
type httpLayers struct {
	clientSelfMs, routerSelfMs, fanout float64
	ops                                int
}

func httpLayerTimes(spans []span) (httpLayers, error) {
	ops := opSpans(spans)
	var out httpLayers
	var clientSelf, routerSelf int64
	var routerSpans, serverSpans int
	for rid, layers := range ops {
		cl, rt, sv := layers[layerClient], layers[layerRouter], layers[layerServer]
		if len(cl) == 0 || len(sv) == 0 {
			return out, fmt.Errorf("operation %s has %d client and %d server spans", rid, len(cl), len(sv))
		}
		remote := sv
		if len(rt) > 0 {
			remote = rt
			routerSelf += selfTime(rt, sv)
			routerSpans += len(rt)
			serverSpans += len(sv)
		}
		clientSelf += selfTime(cl, remote)
		out.ops++
	}
	if out.ops == 0 {
		return out, fmt.Errorf("no traced operations")
	}
	out.clientSelfMs = float64(clientSelf) / float64(out.ops) / 1e6
	out.routerSelfMs = float64(routerSelf) / float64(out.ops) / 1e6
	if routerSpans > 0 {
		out.fanout = float64(serverSpans) / float64(routerSpans)
	}
	return out, nil
}

// primaryRID prefixes the request IDs of a workload's primary operations;
// auxiliary calls (uploads, probes, warm-up) use other IDs.
const primaryRID = "op-"
