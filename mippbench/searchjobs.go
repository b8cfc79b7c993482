package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"time"

	"mipp"
	"mipp/api"
	"mipp/arch"
	"mipp/search"
)

// search-jobs: two clients run seeded jobs of one strategy — random
// sampling of a fixed number of points, so every job does the same amount
// of work and job times form one distribution — through the router. A job
// is POST /v1/search over a lazy 15360-point space with clock and
// prefetcher axes, then GET /v1/search/{id}/events to the terminal event,
// then GET /v1/search/{id} for the report. Bodies on the wire are small:
// the search driver and the batch kernel's memo caches and DVFS fast path
// do nearly all the work.
func init() {
	register(&workload{name: "search-jobs", boot: bootSearch, run: runSearch, verify: verifyCatalog, layers: layersSearch,
		refs: func() []compileKey { return []compileKey{{workload: searchWorkload}} }})
}

// searchWorkload is the catalog workload every job searches.
const searchWorkload = "mcf"

// searchSamples is each job's evaluation count (and budget).
const searchSamples = 2048

// searchDigestOps is how many jobs per client the prediction digest covers.
const searchDigestOps = 20

// searchSpace is 6 widths × 8 ROBs × 4 L2 × 4 L3 × 10 clocks × 2
// prefetcher settings = 15360 points, never materialized.
var searchSpace = &arch.Space{
	Name:    "bench-search",
	Widths:  []int{1, 2, 3, 4, 5, 6},
	ROBs:    []int{32, 48, 64, 96, 128, 192, 256, 384},
	L2Bytes: []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20},
	L3Bytes: []int64{2 << 20, 4 << 20, 8 << 20, 16 << 20},
	Clocks: []arch.DVFSPoint{
		{FrequencyGHz: 1.2, VoltageV: 0.85}, {FrequencyGHz: 1.6, VoltageV: 0.95},
		{FrequencyGHz: 2.0, VoltageV: 1.0}, {FrequencyGHz: 2.2, VoltageV: 1.03},
		{FrequencyGHz: 2.4, VoltageV: 1.05}, {FrequencyGHz: 2.66, VoltageV: 1.1},
		{FrequencyGHz: 2.8, VoltageV: 1.13}, {FrequencyGHz: 3.0, VoltageV: 1.16},
		{FrequencyGHz: 3.2, VoltageV: 1.2}, {FrequencyGHz: 3.33, VoltageV: 1.25},
	},
	Prefetcher: []bool{false, true},
}

// searchRequest is job k of a client: the strategy seed is drawn from the
// client's seeded stream, everything else is fixed.
func searchRequest(seed int64) *api.SearchRequest {
	return &api.SearchRequest{
		SchemaVersion: api.SchemaVersion,
		Workload:      searchWorkload,
		Space:         api.SpaceSpec{Kind: "parametric", Space: searchSpace},
		Strategy:      api.StrategySpec{Kind: "random", Seed: seed, Samples: searchSamples},
		Objective:     string(search.ObjectiveTime),
		Budget:        searchSamples,
	}
}

func bootSearch(ctx context.Context, b *bench, cat *catalog) (*tier, error) {
	dir, err := os.MkdirTemp(b.workDir, "store-")
	if err != nil {
		return nil, err
	}
	if err := writeCatalog(b, dir, cat, identityNames(cat)); err != nil {
		return nil, err
	}
	t, err := bootReplicas(b, dir, 2, true)
	if err != nil {
		return nil, err
	}
	// Warm-up: one job on every replica directly, then one through the
	// router per client connection.
	urls := slices.Clone(t.replicaURLs)
	for i := 0; i < clientConns(); i++ {
		urls = append(urls, t.front)
	}
	for i, u := range urls {
		c, tr := newClient(u)
		_, err := runJob(ctx, &benchClient{c: c}, searchRequest(-1-int64(i)), "warm")
		tr.CloseIdleConnections()
		if err != nil {
			t.close()
			return nil, fmt.Errorf("warm-up via %s: %w", u, err)
		}
	}
	return t, nil
}

// jobResult is what a client saw of one job.
type jobResult struct {
	report   *api.SearchReport
	terminal *api.SearchReport
	events   int
}

// runJob submits req, follows its event stream to the terminal event and
// fetches the finished job, all under request ID rid.
func runJob(ctx context.Context, bc *benchClient, req *api.SearchRequest, rid string) (*jobResult, error) {
	ctx = api.ContextWithRequestID(ctx, rid)
	sub, err := bc.c.SubmitSearch(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	id := sub.Job.ID
	res := &jobResult{}
	stream, err := bc.c.SearchEvents(ctx, id, 0)
	if err != nil {
		return nil, fmt.Errorf("events %s: %w", id, err)
	}
	seq := 0
	for {
		ev, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			stream.Close()
			return nil, fmt.Errorf("events %s: %w", id, err)
		}
		if ev.Seq != seq+1 {
			stream.Close()
			return nil, fmt.Errorf("events %s: seq %d after %d", id, ev.Seq, seq)
		}
		seq = ev.Seq
		res.events++
		if ev.Terminal() {
			if ev.Type != api.JobDone {
				stream.Close()
				return nil, fmt.Errorf("job %s ended %s: %s", id, ev.Type, ev.Error)
			}
			res.terminal = ev.Report
		}
	}
	stream.Close()
	job, err := bc.c.SearchJob(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("fetch %s: %w", id, err)
	}
	if job.Job.State != api.JobDone || job.Job.Report == nil {
		return nil, fmt.Errorf("job %s is %s after its terminal event", id, job.Job.State)
	}
	res.report = job.Job.Report
	return res, nil
}

func runSearch(ctx context.Context, b *bench, t *tier, deadline time.Time) (*phase, error) {
	pd, err := b.ref.eng.Predictor(searchWorkload, api.PredictorSpec{})
	if err != nil {
		return nil, err
	}
	return runClients(ctx, b, t.front, deadline, searchDigestOps, func(ctx context.Context, bc *benchClient, k int) error {
		req := searchRequest(bc.rng.Int64())
		var res *jobResult
		d, err := bc.call(ctx, bc.rid(true, k, 0), func(ctx context.Context) error {
			var err error
			res, err = runJob(ctx, bc, req, api.RequestIDFromContext(ctx))
			return err
		})
		bc.attempted++
		if err != nil {
			bc.failed++
			b.checks.failf("search job: %v", err)
			return nil
		}
		bc.latenciesMs = append(bc.latenciesMs, ms(d))
		bc.points += int64(res.report.Evaluations)
		checkJob(b, pd, req, res)
		bc.dig.add(res.report)
		bc.dig.done()
		return nil
	})
}

// checkJob checks one finished job: the terminal event's report equals the
// fetched one, the front is mutually non-dominated by the benchmark's own
// O(n²) test, the best point's fitness is at most every front point's,
// re-predicting the best and front points in process gives the reported
// time and watts, and the evaluations stay within the budget.
func checkJob(b *bench, pd *mipp.Predictor, req *api.SearchRequest, res *jobResult) {
	rep := res.report
	b.checks.count(4 + len(rep.Front))
	if !reflect.DeepEqual(rep, res.terminal) {
		b.checks.failf("job seed %d: terminal event report differs from the fetched report", req.Strategy.Seed)
	}
	if rep.Evaluations > req.Budget || rep.Evaluations <= 0 {
		b.checks.failf("job seed %d: %d evaluations, budget %d", req.Strategy.Seed, rep.Evaluations, req.Budget)
	}
	if rep.Best == nil || len(rep.Front) == 0 {
		b.checks.failf("job seed %d: no best point or empty front", req.Strategy.Seed)
		return
	}
	times := make([]float64, len(rep.Front))
	watts := make([]float64, len(rep.Front))
	for i, e := range rep.Front {
		times[i], watts[i] = e.TimeSeconds, e.Watts
		if rep.Best.Fitness > e.Fitness {
			b.checks.failf("job seed %d: best fitness %v above front point %s fitness %v",
				req.Strategy.Seed, rep.Best.Fitness, e.Config, e.Fitness)
		}
	}
	if i := firstDominated(times, watts); i >= 0 {
		b.checks.failf("job seed %d: front point %s is dominated", req.Strategy.Seed, rep.Front[i].Config)
	}
	for _, e := range append([]search.Eval{*rep.Best}, rep.Front...) {
		r, err := pd.Predict(searchSpace.At(e.Index))
		if err != nil {
			b.checks.failf("job seed %d: re-predict %s: %v", req.Strategy.Seed, e.Config, err)
			continue
		}
		if r.Config != e.Config || r.TimeSeconds() != e.TimeSeconds || r.Watts() != e.Watts {
			b.checks.failf("job seed %d: %s reported time %v watts %v, re-predicted %s time %v watts %v",
				req.Strategy.Seed, e.Config, e.TimeSeconds, e.Watts, r.Config, r.TimeSeconds(), r.Watts())
		}
	}
}

func layersSearch(ctx context.Context, b *bench, t *tier, ph *phase, m metrics) error {
	in, err := designInputs(ctx, b)
	if err != nil {
		return err
	}
	in.phaseSpans, in.routerSpans = b.phaseSpans, b.phaseSpans
	in.workRoute = "GET /v1/search/{id}/events"
	// One job driven through ServeHTTP (submit, event stream to the
	// terminal event, fetch) against the same job on the engine in process.
	probe := searchRequest(b.seed)
	body, err := json.Marshal(probe)
	if err != nil {
		return err
	}
	srv, eng := t.servers[0], t.engines[0]
	in.serve = func(ctx context.Context) (time.Duration, int, error) {
		rr, d1, err := serveInMemory(ctx, srv, "POST", "/v1/search", body)
		if err != nil {
			return 0, 0, err
		}
		var sub api.SearchJobResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &sub); err != nil {
			return 0, 0, err
		}
		_, d2, err := serveInMemory(ctx, srv, "GET", "/v1/search/"+sub.Job.ID+"/events", nil)
		if err != nil {
			return 0, 0, err
		}
		rr, d3, err := serveInMemory(ctx, srv, "GET", "/v1/search/"+sub.Job.ID, nil)
		if err != nil {
			return 0, 0, err
		}
		var job api.SearchJobResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &job); err != nil || job.Job.Report == nil {
			return 0, 0, fmt.Errorf("in-memory search job %s: %v", sub.Job.ID, err)
		}
		return d1 + d2 + d3, job.Job.Report.Evaluations, nil
	}
	in.engineSame = func(ctx context.Context) (time.Duration, error) {
		start := time.Now()
		sub, err := eng.SubmitSearch(ctx, probe)
		if err != nil {
			return 0, err
		}
		if _, err := waitJob(eng, sub.Job.ID); err != nil {
			return 0, err
		}
		_, err = eng.SearchJob(ctx, sub.Job.ID)
		return time.Since(start), err
	}
	// The kernel batches one job hands the predictor, captured in process.
	pd, err := b.ref.eng.Predictor(searchWorkload, api.PredictorSpec{})
	if err != nil {
		return err
	}
	in.batches = nil
	ev := mipp.NewSearchEvaluator(pd, 0)
	capture := func(ctx context.Context, configs []*arch.Config) ([]search.Metrics, error) {
		in.batches = append(in.batches, probeBatch{pd: pd, configs: slices.Clone(configs)})
		return ev(ctx, configs)
	}
	strategy, err := mipp.StrategyFor(probe.Strategy)
	if err != nil {
		return err
	}
	if _, err := search.Run(ctx, capture, searchSpace, strategy, search.Options{
		Objective: search.ObjectiveTime, Seed: probe.Strategy.Seed, Budget: probe.Budget,
	}); err != nil {
		return err
	}
	in.compiles = []compileKey{{workload: searchWorkload}}
	in.searches = []*api.SearchRequest{searchRequest(b.seed), searchRequest(b.seed + 1), searchRequest(b.seed + 2)}
	return fillLayers(ctx, b, t, ph, in, m)
}

// waitJob follows a job's events in process until the terminal one.
func waitJob(e *mipp.Engine, id string) (*api.SearchReport, error) {
	events, cancel, err := e.SearchEvents(id, 0)
	if err != nil {
		return nil, err
	}
	defer cancel()
	for ev := range events {
		if ev.Terminal() {
			if ev.Type != api.JobDone {
				return nil, fmt.Errorf("job %s ended %s: %s", id, ev.Type, ev.Error)
			}
			return ev.Report, nil
		}
	}
	return nil, fmt.Errorf("job %s: event stream closed without a terminal event", id)
}
