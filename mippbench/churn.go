package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"mipp/api"
	"mipp/arch"
	"mipp/client"
	"mipp/store"
)

// catalog-churn: two clients talk to one mippd backed by a store whose
// resident bound is below a single profile, so every profile load goes to
// disk. Most operations are single-config POST /v1/predict calls across
// 48 profile names and four predictor specs, interleaved with inline
// re-uploads (POST /v1/profiles) that invalidate the name's predictors:
// the next predict of that name does a store load and a compile. Each
// client owns half the names, so load and compile counts repeat exactly.
func init() {
	register(&workload{name: "catalog-churn", boot: bootChurn, run: runChurn, verify: verifyChurn, layers: layersChurn,
		refs: func() []compileKey {
			var keys []compileKey
			for _, w := range catalogWorkloads {
				for _, spec := range churnSpecs {
					keys = append(keys, compileKey{workload: w, spec: spec})
				}
			}
			return keys
		}})
}

// churnAliases is how many names each catalog profile is stored under.
const churnAliases = 8

// Each client round re-uploads one owned name of every catalog workload,
// in a seeded order, so every round does the same work. Each re-upload is
// followed by one cache-missing predict and churnHitsPerMiss cache-hitting
// ones, so misses are a quarter of the predicts: the p50 lies inside the
// hits and the p90 inside the misses. The hits differ from the miss only
// in the clock, so they find the compiled predictor's memo tables warm (the
// DVFS fast path) and time the single-config path and per-request HTTP
// overhead rather than memo fills.
const churnHitsPerMiss = 3

// churnDigestOps is how many rounds per client the prediction digest covers.
const churnDigestOps = 5

// churnSpecs are the predictor variants the predicts ask for.
var churnSpecs = []api.PredictorSpec{
	{},
	{MLPMode: "cold-miss"},
	{NoLLCChain: true},
	{Prefetcher: ptr(true)},
}

func ptr[T any](v T) *T { return &v }

// churnNames maps every stored name (catalog aliases plus one probe name
// per client) to its catalog workload.
func churnNames(cat *catalog) map[string]string {
	names := make(map[string]string)
	for _, w := range cat.names {
		for a := 0; a < churnAliases; a++ {
			names[aliasName(w, a)] = w
		}
	}
	for c := 0; c < clientConns(); c++ {
		names[probeName(c)] = cat.names[0]
	}
	return names
}

func probeName(client int) string { return fmt.Sprintf("probe.%d", client) }

func aliasName(workload string, alias int) string { return fmt.Sprintf("%s.%d", workload, alias) }

// ownedAlias is the alias of each workload client c re-uploads in round k:
// client c owns the aliases congruent to c, so the two clients never
// touch the same name and the store-load and compile counts repeat
// exactly.
func ownedAlias(c, k int) int {
	n := clientConns()
	return c + n*(k%(churnAliases/n))
}

// invalidProbes are inline configurations the service must reject with a
// typed 400. Each breaks one field the kernel reads.
var invalidProbes = []struct {
	name   string
	mutate func(c *arch.Config)
}{
	{"frequency_ghz=0", func(c *arch.Config) { c.FrequencyGHz = 0 }},
	{"mshrs=0", func(c *arch.Config) { c.MSHRs = 0 }},
	{"mem_latency_ns=-50", func(c *arch.Config) { c.MemLatencyNS = -50 }},
	{"voltage_v=0", func(c *arch.Config) { c.VoltageV = 0 }},
}

func bootChurn(ctx context.Context, b *bench, cat *catalog) (*tier, error) {
	dir, err := os.MkdirTemp(b.workDir, "store-")
	if err != nil {
		return nil, err
	}
	if err := writeCatalog(b, dir, cat, churnNames(cat)); err != nil {
		return nil, err
	}
	smallest := int64(-1)
	for _, env := range cat.envelopes {
		if n := int64(len(env)); smallest < 0 || n < smallest {
			smallest = n
		}
	}
	t, err := bootReplicas(b, dir, 1, false, store.WithMaxResidentBytes(smallest/2))
	if err != nil {
		return nil, err
	}
	// Warm-up per client connection: compile its probe name's predictor
	// and take one owned name through upload, miss and hit.
	for c := 0; c < clientConns(); c++ {
		cl, tr := newClient(t.front)
		err := warmChurn(ctx, b, cl, c)
		tr.CloseIdleConnections()
		if err != nil {
			t.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return t, nil
}

func warmChurn(ctx context.Context, b *bench, c *client.Client, id int) error {
	if _, err := c.Predict(ctx, predictRequest(probeName(id), api.PredictorSpec{}, 0)); err != nil {
		return err
	}
	w := b.cat.names[0]
	name := aliasName(w, ownedAlias(id, 0))
	if _, err := c.RegisterProfile(ctx, uploadRequest(b.cat, name, w)); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Predict(ctx, predictRequest(name, api.PredictorSpec{}, i)); err != nil {
			return err
		}
	}
	return nil
}

// withClock is Table 6.3 point i moved to operating point h (mod 3) with
// every other axis kept.
func withClock(i, h int) int {
	const clockAxis = 4
	coords := tableSpace.Coords(i, nil)
	coords[clockAxis] = h % len(tableSpace.Clocks)
	return tableSpace.Index(coords)
}

func predictRequest(name string, spec api.PredictorSpec, config int) *api.PredictRequest {
	return &api.PredictRequest{
		SchemaVersion: api.SchemaVersion,
		Workload:      name,
		Config:        api.ConfigSpec{Config: tableSpace.At(config)},
		Options:       spec,
	}
}

// uploadRequest re-uploads workload w's canonical envelope under name.
func uploadRequest(cat *catalog, name, w string) *api.RegisterProfileRequest {
	return &api.RegisterProfileRequest{
		SchemaVersion: api.SchemaVersion,
		Name:          name,
		Profile:       json.RawMessage(cat.envelopes[w]),
	}
}

// basePoints are the Table 6.3 points at the first clock: the points a
// miss predicts before its hits move the clock.
func basePoints() []int {
	var pts []int
	for i := 0; i < tableSpace.Size(); i++ {
		if withClock(i, 0) == i {
			pts = append(pts, i)
		}
	}
	return pts
}

func runChurn(ctx context.Context, b *bench, t *tier, deadline time.Time) (*phase, error) {
	// Each client's misses walk a seeded order of the base points, so a run
	// fills the memo tables of every geometry about equally often whatever
	// the seed.
	missOrder := make([][]int, clientConns())
	base := basePoints()
	return runClients(ctx, b, t.front, deadline, churnDigestOps, func(ctx context.Context, bc *benchClient, k int) error {
		if k == 0 {
			for _, p := range bc.rng.Perm(len(base)) {
				missOrder[bc.id] = append(missOrder[bc.id], base[p])
			}
		}
		for j, i := range bc.rng.Perm(len(b.cat.names)) {
			w := b.cat.names[i]
			name := aliasName(w, ownedAlias(bc.id, k))
			// The spec depends on the workload and the round, not on the
			// seeded order: every run compiles the same (workload, spec)
			// pairs, each once in four rounds.
			spec := churnSpecs[(k+i)%len(churnSpecs)]
			want, err := b.ref.table(w, spec)
			if err != nil {
				return err
			}
			_, err = bc.call(ctx, bc.rid(false, k, j), func(ctx context.Context) error {
				resp, err := bc.c.RegisterProfile(ctx, uploadRequest(b.cat, name, w))
				if err == nil && (resp.Name != name || resp.Workload != w || resp.Uops != b.cat.profiles[w].TotalUops()) {
					b.checks.failf("upload %s answered %+v", name, *resp)
				}
				return err
			})
			bc.attempted++
			b.checks.count(1)
			if err != nil {
				bc.failed++
				b.checks.failf("upload %s: %v", name, err)
				continue
			}
			order := missOrder[bc.id]
			missCfg := order[(k*len(b.cat.names)+j)%len(order)]
			for h := 0; h <= churnHitsPerMiss; h++ {
				cfg := withClock(missCfg, h)
				var resp *api.PredictResponse
				d, err := bc.call(ctx, bc.rid(true, k, j*10+h), func(ctx context.Context) error {
					var err error
					resp, err = bc.c.Predict(ctx, predictRequest(name, spec, cfg))
					return err
				})
				bc.attempted++
				if err != nil {
					bc.failed++
					b.checks.failf("predict %s: %v", name, err)
					continue
				}
				bc.latenciesMs = append(bc.latenciesMs, ms(d))
				bc.points++
				b.checks.count(2)
				if err := checkResult(resp.Result); err != nil {
					b.checks.failf("predict: %v", err)
				}
				if err := sameResult(resp.Result, want[cfg]); err != nil {
					b.checks.failf("predict %s vs its batch row: %v", name, err)
				}
				bc.dig.add(resp.Result)
			}
		}
		for _, p := range invalidProbes {
			bc.attempted++
			if err := probeInvalid(ctx, bc, k, p.name, p.mutate); err != nil {
				bc.failed++
			}
		}
		bc.dig.done()
		return nil
	})
}

// probeInvalid sends one invalid inline config and succeeds only on a
// typed 400 error envelope.
func probeInvalid(ctx context.Context, bc *benchClient, k int, name string, breakIt func(*arch.Config)) error {
	cfg := arch.Reference()
	breakIt(cfg)
	req := &api.PredictRequest{
		SchemaVersion: api.SchemaVersion,
		Workload:      probeName(bc.id),
		Config:        api.ConfigSpec{Config: cfg},
	}
	_, err := bc.call(ctx, bc.rid(false, k, 100), func(ctx context.Context) error {
		_, err := bc.c.Predict(ctx, req)
		return err
	})
	var re *client.RemoteError
	if errors.As(err, &re) && re.Status == 400 && re.Message != "" {
		return nil
	}
	if err == nil {
		return fmt.Errorf("probe %s: accepted", name)
	}
	return fmt.Errorf("probe %s: %w", name, err)
}

func verifyChurn(ctx context.Context, b *bench, t *tier) error {
	c, tr := newClient(t.front)
	defer tr.CloseIdleConnections()
	// The DVFS sweep takes alias 0 of each catalog workload.
	first := make(map[string]string)
	for _, w := range b.cat.names {
		first[aliasName(w, 0)] = w
	}
	if err := servedDVFS(ctx, b, c, first); err != nil {
		return err
	}
	return servedDigests(ctx, b, c, churnNames(b.cat))
}

func layersChurn(ctx context.Context, b *bench, t *tier, ph *phase, m metrics) error {
	in, err := designInputs(ctx, b)
	if err != nil {
		return err
	}
	in.phaseSpans = b.phaseSpans
	in.workRoute = "POST /v1/predict"

	// The router is not on this workload's path: a probe phase puts one in
	// front of the mippd and sends each client's hit predicts through it.
	if err := t.addRouter(b.rec); err != nil {
		return err
	}
	before := len(b.rec.snapshot())
	for c := 0; c < clientConns(); c++ {
		cl, tr := newClient(t.front)
		bc := &benchClient{id: c, c: cl, rec: b.rec}
		for k := 0; k < 100; k++ {
			_, err := bc.call(ctx, fmt.Sprintf("%sr%d-%d", primaryRID, c, k), func(ctx context.Context) error {
				_, err := cl.Predict(ctx, predictRequest(probeName(c), api.PredictorSpec{}, k%tableSpace.Size()))
				return err
			})
			if err != nil {
				tr.CloseIdleConnections()
				return err
			}
		}
		tr.CloseIdleConnections()
	}
	in.routerSpans = b.rec.snapshot()[before:]

	// The server probes use a cache-hitting predict: a miss's store load
	// and compile would swamp the server's own share.
	hit := predictRequest(probeName(0), api.PredictorSpec{}, 1)
	body, err := json.Marshal(hit)
	if err != nil {
		return err
	}
	in.serve = func(ctx context.Context) (time.Duration, int, error) {
		_, d, err := serveInMemory(ctx, t.servers[0], "POST", "/v1/predict", body)
		return d, 1, err
	}
	in.engineSame = func(ctx context.Context) (time.Duration, error) {
		start := time.Now()
		_, err := t.engines[0].Predict(ctx, hit)
		return time.Since(start), err
	}
	configs, err := api.ExpandConfigs(nil, &api.SpaceSpec{Kind: "design", Stride: 6})
	if err != nil {
		return err
	}
	in.predicts, in.compiles = nil, nil
	for _, w := range b.cat.names {
		for _, spec := range churnSpecs {
			pd, err := b.ref.eng.Predictor(w, spec)
			if err != nil {
				return err
			}
			in.predicts = append(in.predicts, probeBatch{pd: pd, configs: configs})
			in.compiles = append(in.compiles, compileKey{workload: w, spec: spec})
		}
	}
	return fillLayers(ctx, b, t, ph, in, m)
}
