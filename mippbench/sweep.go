package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"mipp/api"
)

// design-sweep: the paper's exhaustive exploration as users are served it.
// Two clients send POST /v1/evaluate through mipp-router to two replicas;
// every request is the same shape — the four sweep workloads, in a seeded
// order, × the 243 points of Table 6.3 — against warm predictors.
func init() {
	register(&workload{name: "design-sweep", boot: bootSweep, run: runSweep, verify: verifyCatalog, layers: layersSweep,
		refs: func() []compileKey {
			var keys []compileKey
			for _, w := range sweepSet {
				keys = append(keys, compileKey{workload: w})
			}
			return keys
		}})
}

// sweepSet is the catalog workloads every design-sweep request carries.
var sweepSet = catalogWorkloads[:4]

// sweepDigestOps is how many requests per client the prediction digest
// covers; every run completes at least this many.
const sweepDigestOps = 20

func sweepRequest(workloads []string) *api.BatchRequest {
	return &api.BatchRequest{
		SchemaVersion: api.SchemaVersion,
		Workloads:     workloads,
		Space:         &api.SpaceSpec{Kind: "design"},
	}
}

// identityNames maps each catalog workload to itself: the stored names of
// the design-sweep and search-jobs catalogs.
func identityNames(cat *catalog) map[string]string {
	names := make(map[string]string, len(cat.names))
	for _, n := range cat.names {
		names[n] = n
	}
	return names
}

func bootSweep(ctx context.Context, b *bench, cat *catalog) (*tier, error) {
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
	// Warm-up: load and compile the sweep workloads on every replica
	// directly (the router may place a workload on either), then send one
	// request through the router per client connection.
	urls := slices.Clone(t.replicaURLs)
	for i := 0; i < clientConns(); i++ {
		urls = append(urls, t.front)
	}
	for _, u := range urls {
		c, tr := newClient(u)
		_, err := c.Evaluate(ctx, sweepRequest(sweepSet))
		tr.CloseIdleConnections()
		if err != nil {
			t.close()
			return nil, fmt.Errorf("warm-up via %s: %w", u, err)
		}
	}
	return t, nil
}

func runSweep(ctx context.Context, b *bench, t *tier, deadline time.Time) (*phase, error) {
	return runClients(ctx, b, t.front, deadline, sweepDigestOps, func(ctx context.Context, bc *benchClient, k int) error {
		order := bc.rng.Perm(len(sweepSet))
		ws := make([]string, len(order))
		for i, j := range order {
			ws[i] = sweepSet[j]
		}
		req := sweepRequest(ws)
		var resp *api.BatchResponse
		d, err := bc.call(ctx, bc.rid(true, k, 0), func(ctx context.Context) error {
			var err error
			resp, err = bc.c.Evaluate(ctx, req)
			return err
		})
		bc.attempted++
		if err != nil {
			bc.failed++
			b.checks.failf("evaluate: %v", err)
			return nil
		}
		bc.latenciesMs = append(bc.latenciesMs, ms(d))
		n, err := checkBatch(b, req, resp)
		if err != nil {
			return err
		}
		bc.points += int64(n)
		bc.dig.add(resp.Items)
		bc.dig.done()
		return nil
	})
}

// checkBatch checks a served Table 6.3 batch item by item against the
// in-process Engine.Evaluate rows, plus every per-result property and the
// ROB/L3 monotonicity of each workload's block. It returns the number of
// items received.
func checkBatch(b *bench, req *api.BatchRequest, resp *api.BatchResponse) (int, error) {
	size := tableSpace.Size()
	if len(resp.Items) != len(req.Workloads)*size {
		b.checks.failf("evaluate returned %d items, want %d", len(resp.Items), len(req.Workloads)*size)
		return len(resp.Items), nil
	}
	block := make([]*api.Result, size)
	for w, name := range req.Workloads {
		complete := true
		want, err := b.ref.table(name, req.Options)
		if err != nil {
			return 0, err
		}
		for i := 0; i < size; i++ {
			it := resp.Items[w*size+i]
			if it.Workload != name || it.Error != "" || it.Result == nil {
				b.checks.failf("item %d: workload %q error %q, want %q", w*size+i, it.Workload, it.Error, name)
				complete = false
				continue
			}
			if err := checkResult(it.Result); err != nil {
				b.checks.failf("evaluate: %v", err)
			}
			if err := sameResult(it.Result, want[i]); err != nil {
				b.checks.failf("evaluate: %v", err)
			}
			block[i] = it.Result
		}
		if !complete {
			continue
		}
		if err := checkTableMonotone(block); err != nil {
			b.checks.failf("evaluate: %v", err)
		}
	}
	b.checks.count(2*len(resp.Items) + len(req.Workloads))
	return len(resp.Items), nil
}

// verifyCatalog runs the whole-run checks through the workload's front
// door: a DVFS sweep of every catalog workload and every stored digest.
func verifyCatalog(ctx context.Context, b *bench, t *tier) error {
	c, tr := newClient(t.front)
	defer tr.CloseIdleConnections()
	names := identityNames(b.cat)
	if err := servedDVFS(ctx, b, c, names); err != nil {
		return err
	}
	return servedDigests(ctx, b, c, names)
}

// designInputs is the layer-probe input set of the design-sweep request:
// the sweep workloads' warm predictors over Table 6.3, batched and one
// config at a time, their compiles, the "design" space expansion, the
// whole request through Engine.Evaluate, and three search-jobs jobs.
func designInputs(ctx context.Context, b *bench) (layerInputs, error) {
	configs, err := api.ExpandConfigs(nil, &api.SpaceSpec{Kind: "design"})
	if err != nil {
		return layerInputs{}, err
	}
	in := layerInputs{
		expand:   &api.SpaceSpec{Kind: "design"},
		evaluate: sweepRequest(sweepSet),
		searches: []*api.SearchRequest{searchRequest(b.seed), searchRequest(b.seed + 1), searchRequest(b.seed + 2)},
	}
	for _, w := range sweepSet {
		pd, err := b.ref.eng.Predictor(w, api.PredictorSpec{})
		if err != nil {
			return layerInputs{}, err
		}
		in.batches = append(in.batches, probeBatch{pd: pd, configs: configs})
		in.compiles = append(in.compiles, compileKey{workload: w})
	}
	in.predicts = in.batches
	return in, nil
}

func layersSweep(ctx context.Context, b *bench, t *tier, ph *phase, m metrics) error {
	in, err := designInputs(ctx, b)
	if err != nil {
		return err
	}
	in.phaseSpans, in.routerSpans = b.phaseSpans, b.phaseSpans
	in.workRoute = "POST /v1/evaluate"
	// The router sends each replica one single-workload sub-request; the
	// in-process equivalent is Engine.Evaluate of that sub-request.
	sub := sweepRequest(sweepSet[:1])
	body, err := json.Marshal(sub)
	if err != nil {
		return err
	}
	in.serve = func(ctx context.Context) (time.Duration, int, error) {
		_, d, err := serveInMemory(ctx, t.servers[0], "POST", "/v1/evaluate", body)
		return d, tableSpace.Size(), err
	}
	in.engineSame = func(ctx context.Context) (time.Duration, error) {
		start := time.Now()
		_, err := t.engines[0].Evaluate(ctx, sub)
		return time.Since(start), err
	}
	return fillLayers(ctx, b, t, ph, in, m)
}
