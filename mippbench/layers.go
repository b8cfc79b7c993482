package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"mipp"
	"mipp/api"
	"mipp/arch"
	"mipp/search"
)

// Per-layer metrics come from two sources, both in the benchmark's own
// code: spans recorded around each layer's public calls during the traced
// measured phase (client, router, server, store, profiler), and direct
// in-process calls into the library layers (api.ExpandConfigs,
// Engine.Predictor, Engine.Evaluate, Predictor.PredictBatchInto,
// Predictor.Predict, search.Run) on the workload's own inputs. Where a
// workload does not call a library layer, its probe runs the design-sweep
// request over the same catalog, so every layer is still reported.

// layerInputs is what one workload feeds the layer probes.
type layerInputs struct {
	// workRoute is the server route of the workload's primary work; the
	// server's handler time is averaged over its spans.
	workRoute string
	// serve drives one replica's ServeHTTP into an in-memory recorder with
	// the workload's work request and returns the time the handler took and
	// the points served; engineSame makes the same request's engine call in
	// process. Run back to back, their difference is server.self_ms.
	serve      func(ctx context.Context) (time.Duration, int, error)
	engineSame func(ctx context.Context) (time.Duration, error)
	// batches are the (predictor, configs) batches the workload's points
	// are evaluated in; predicts are configs predicted one at a time.
	batches  []probeBatch
	predicts []probeBatch
	// compiles are the (workload, spec) predictors the workload compiles.
	compiles []compileKey
	// expand is the space specification the api layer expands.
	expand *api.SpaceSpec
	// evaluate is the batch request the engine probe serves in process.
	evaluate *api.BatchRequest
	// searches are the search jobs the search probe runs in process.
	searches []*api.SearchRequest
	// phaseSpans and routerSpans select the spans of the measured phase
	// and of the router's operations (they differ when the workload's
	// traffic bypasses the router and a probe phase measures it).
	phaseSpans, routerSpans []span
}

type probeBatch struct {
	pd      *mipp.Predictor
	configs []*arch.Config
}

type compileKey struct {
	workload string
	spec     api.PredictorSpec
}

// probeReps is how many times each in-process probe repeats its inputs.
const probeReps = 20

// fillLayers computes every per-layer metric into m.
func fillLayers(ctx context.Context, b *bench, t *tier, ph *phase, in layerInputs, m metrics) error {
	profilerLayer(b.rec.snapshot(), m)
	storeLayer(b.rec.snapshot(), t, m)
	if err := engineCounters(b, m); err != nil {
		return err
	}

	hl, err := httpLayerTimes(in.phaseSpans)
	if err != nil {
		return err
	}
	m.set("client.self_ms", hl.clientSelfMs, "ms")
	rl, err := httpLayerTimes(in.routerSpans)
	if err != nil {
		return err
	}
	m.set("router.self_ms", rl.routerSelfMs, "ms")
	m.set("router.fanout", rl.fanout, "subreq/request")

	var handler []float64
	var bytes int64
	for _, s := range in.phaseSpans {
		if s.Layer == layerServer && strings.HasPrefix(s.RID, primaryRID) {
			bytes += s.Bytes
			if s.Route == in.workRoute {
				handler = append(handler, ms(time.Duration(s.dur())))
			}
		}
	}
	if len(handler) == 0 {
		return fmt.Errorf("no server spans on %s", in.workRoute)
	}
	m.set("server.handler_ms", mean(handler), "ms")
	m.set("server.response_bytes_per_point", float64(bytes)/float64(ph.points), "B/point")
	var served, engine []float64
	var allocs uint64
	points := 0
	for i := 0; i < probeReps; i++ {
		var d time.Duration
		var p int
		a, err := allocsOf(func() error {
			var err error
			d, p, err = in.serve(ctx)
			return err
		})
		if err != nil {
			return err
		}
		e, err := in.engineSame(ctx)
		if err != nil {
			return err
		}
		served = append(served, ms(d))
		engine = append(engine, ms(e))
		allocs += a
		points += p
	}
	m.set("server.self_ms", median(served)-median(engine), "ms")
	m.set("server.allocs_per_point", float64(allocs)/float64(points), "allocs/point")

	if err := expandProbe(in.expand, m); err != nil {
		return err
	}
	if err := predictorProbe(ctx, b, in, m); err != nil {
		return err
	}
	if err := engineProbe(ctx, b, in.evaluate, m); err != nil {
		return err
	}
	return searchProbe(ctx, b, in.searches, m)
}

// profilerLayer reports the set-up's profiling: busy time summed over the
// profiled workloads, and uops profiled per busy second.
func profilerLayer(spans []span, m metrics) {
	var busy, uops int64
	for _, s := range spans {
		if s.Layer == layerProfiler {
			busy += s.dur()
			uops += s.Bytes
		}
	}
	m.set("profiler.busy_s", float64(busy)/1e9, "s")
	m.set("profiler.uops_per_s", float64(uops)/(float64(busy)/1e9), "uops/s")
}

// storeLayer reports mean Put and Get times over the whole traced run, and
// the replicas' stores' load count and resident hit ratio.
func storeLayer(spans []span, t *tier, m metrics) {
	var put, get []float64
	for _, s := range spans {
		switch s.Layer {
		case layerStorePut:
			put = append(put, ms(time.Duration(s.dur())))
		case layerStoreGet:
			get = append(get, ms(time.Duration(s.dur())))
		}
	}
	m.set("store.put_ms", mean(put), "ms")
	m.set("store.get_ms", mean(get), "ms")
	var loads, hits, misses uint64
	for _, st := range t.stores {
		s := st.Stats()
		loads += s.Loads
		hits += s.Hits
		misses += s.Misses
	}
	m.set("store.loads", float64(loads), "count")
	m.set("store.hit_ratio", float64(hits)/float64(hits+misses), "hits/lookups")
}

// engineTotals sums the replicas' predictor-cache counters.
func engineTotals(t *tier) (hits, misses uint64) {
	for _, e := range t.engines {
		s := e.Stats()
		hits += s.CacheHits
		misses += s.CacheMisses
	}
	return hits, misses
}

// engineCounters reports the predictor compiles and cache hit ratio of the
// measured phase.
func engineCounters(b *bench, m metrics) error {
	hits := b.cacheAfter[0] - b.cacheBefore[0]
	misses := b.cacheAfter[1] - b.cacheBefore[1]
	if hits+misses == 0 {
		return fmt.Errorf("no predictor-cache lookups in the measured phase")
	}
	m.set("engine.compiles", float64(misses), "count")
	m.set("engine.cache_hit_ratio", float64(hits)/float64(hits+misses), "hits/lookups")
	return nil
}

// allocsOf returns the heap allocations f makes (every goroutine's; the
// probes run with the clients stopped and the tier idle).
func allocsOf(f func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

func expandProbe(spec *api.SpaceSpec, m metrics) error {
	var elapsed time.Duration
	allocs, err := allocsOf(func() error {
		start := time.Now()
		for i := 0; i < probeReps; i++ {
			if _, err := api.ExpandConfigs(nil, spec); err != nil {
				return err
			}
		}
		elapsed = time.Since(start)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("api.expand_us", float64(elapsed)/1e3/probeReps, "us/request")
	m.set("api.expand_allocs", float64(allocs)/probeReps, "allocs/request")
	return nil
}

func predictorProbe(ctx context.Context, b *bench, in layerInputs, m metrics) error {
	br := &mipp.BatchResult{}
	// One untimed pass sizes the reused result block.
	for _, pb := range in.batches {
		if err := pb.pd.PredictBatchInto(ctx, pb.configs, br); err != nil {
			return err
		}
	}
	points := 0
	var elapsed time.Duration
	allocs, err := allocsOf(func() error {
		start := time.Now()
		for i := 0; i < probeReps; i++ {
			for _, pb := range in.batches {
				if err := pb.pd.PredictBatchInto(ctx, pb.configs, br); err != nil {
					return err
				}
				points += len(pb.configs)
			}
		}
		elapsed = time.Since(start)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("predictor.points_per_s", float64(points)/elapsed.Seconds(), "points/s")
	m.set("predictor.allocs_per_point", float64(allocs)/float64(points), "allocs/point")

	var predicts []float64
	for _, pb := range in.predicts {
		for _, c := range pb.configs {
			start := time.Now()
			if _, err := pb.pd.Predict(c); err != nil {
				return err
			}
			predicts = append(predicts, float64(time.Since(start))/1e3)
		}
	}
	m.set("predictor.predict_us", median(predicts), "us")

	var compiles []float64
	for _, k := range in.compiles {
		e := mipp.NewEngine()
		p, ok := b.cat.profiles[k.workload]
		if !ok {
			return fmt.Errorf("no profile for %s", k.workload)
		}
		if err := e.Register(k.workload, p); err != nil {
			return err
		}
		start := time.Now()
		if _, err := e.Predictor(k.workload, k.spec); err != nil {
			return err
		}
		compiles = append(compiles, ms(time.Since(start)))
	}
	m.set("predictor.compile_ms", median(compiles), "ms")
	return nil
}

func engineProbe(ctx context.Context, b *bench, req *api.BatchRequest, m metrics) error {
	if _, err := b.ref.eng.Evaluate(ctx, req); err != nil {
		return err
	}
	points := 0
	var elapsed time.Duration
	allocs, err := allocsOf(func() error {
		start := time.Now()
		for i := 0; i < probeReps; i++ {
			resp, err := b.ref.eng.Evaluate(ctx, req)
			if err != nil {
				return err
			}
			points += len(resp.Items)
		}
		elapsed = time.Since(start)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("engine.points_per_s", float64(points)/elapsed.Seconds(), "points/s")
	m.set("engine.allocs_per_point", float64(allocs)/float64(points), "allocs/point")
	return nil
}

// searchProbe runs each search job in process through search.Run with the
// evaluator and options the engine gives a submitted job.
func searchProbe(ctx context.Context, b *bench, reqs []*api.SearchRequest, m metrics) error {
	// One untimed job fills the predictor's memo tables for the space.
	if _, _, err := runSearchInProcess(ctx, b, reqs[0]); err != nil {
		return err
	}
	var jobs []float64
	evals := 0
	var elapsed time.Duration
	for _, req := range reqs {
		rep, d, err := runSearchInProcess(ctx, b, req)
		if err != nil {
			return err
		}
		jobs = append(jobs, ms(d))
		evals += rep.Evaluations
		elapsed += d
	}
	m.set("search.evals_per_s", float64(evals)/elapsed.Seconds(), "evals/s")
	m.set("search.job_ms", median(jobs), "ms")
	m.set("search.evaluations", float64(evals)/float64(len(reqs)), "count/job")
	return nil
}

// runSearchInProcess runs req through search.Run against the reference
// engine's predictor, as the engine runs a submitted job.
func runSearchInProcess(ctx context.Context, b *bench, req *api.SearchRequest) (*search.Report, time.Duration, error) {
	pd, err := b.ref.eng.Predictor(req.Workload, req.Options)
	if err != nil {
		return nil, 0, err
	}
	space, err := req.Space.Lazy()
	if err != nil {
		return nil, 0, err
	}
	strategy, err := mipp.StrategyFor(req.Strategy)
	if err != nil {
		return nil, 0, err
	}
	opts := search.Options{Objective: search.Objective(req.Objective), Seed: req.Strategy.Seed, Budget: req.Budget}
	start := time.Now()
	rep, err := search.Run(ctx, mipp.NewSearchEvaluator(pd, req.Workers), space, strategy, opts)
	return rep, time.Since(start), err
}

// serveInMemory drives h with one request into an in-memory recorder and
// returns the recorded response and the time ServeHTTP took.
func serveInMemory(ctx context.Context, h http.Handler, method, path string, body []byte) (*httptest.ResponseRecorder, time.Duration, error) {
	req := httptest.NewRequestWithContext(ctx, method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rr, req)
	d := time.Since(start)
	if rr.Code/100 != 2 {
		return nil, d, fmt.Errorf("%s %s: status %d: %s", method, path, rr.Code, rr.Body.String())
	}
	return rr, d, nil
}
