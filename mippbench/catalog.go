package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"mipp"
	"mipp/api"
	"mipp/arch"
)

// The catalog every workload profiles during set-up: six built-in
// workloads with different memory behaviour and profile sizes (170–590 KB
// of canonical JSON), each profiled over catalogUops micro-ops with the
// workloads' default generator seeds. Profiling is the paper's one-time
// cost, so it is part of setup_s. The catalog does not depend on --seed:
// profile contents change the cost of every later prediction, and the
// benchmark's seeds vary the traffic, not the work per operation.
var catalogWorkloads = []string{"mcf", "gcc", "milc", "soplex", "bzip2", "astar"}

const catalogUops = 200_000

// catalog is the profiled workload set with the canonical envelope and
// digest of each profile.
type catalog struct {
	names     []string
	profiles  map[string]*mipp.Profile
	envelopes map[string][]byte
	digests   map[string]string
}

// profileCatalog profiles every catalog workload, one worker per client
// connection. Worker i takes every clientConns()-th workload from i, so
// the split of work between workers is the same in every run.
func profileCatalog(rec *recorder) (*catalog, error) {
	cat := &catalog{
		names:     catalogWorkloads,
		profiles:  make(map[string]*mipp.Profile),
		envelopes: make(map[string][]byte),
		digests:   make(map[string]string),
	}
	profiler := mipp.NewProfiler()
	workers := clientConns()
	errs := make([]error, len(cat.names))
	profiles := make([]*mipp.Profile, len(cat.names))
	envelopes := make([][]byte, len(cat.names))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(cat.names); i += workers {
				name := cat.names[i]
				var start int64
				if rec != nil {
					start = rec.now()
				}
				p, err := profiler.Profile(name, catalogUops)
				if err != nil {
					errs[i] = fmt.Errorf("profile %s: %w", name, err)
					continue
				}
				if rec != nil {
					rec.add(span{Layer: layerProfiler, Route: name, Start: start, End: rec.now(), Bytes: p.TotalUops()})
				}
				profiles[i] = p
				envelopes[i], errs[i] = json.Marshal(p)
			}
		}()
	}
	wg.Wait()
	for i, name := range cat.names {
		if errs[i] != nil {
			return nil, errs[i]
		}
		cat.profiles[name] = profiles[i]
		cat.envelopes[name] = envelopes[i]
		cat.digests[name] = digestOf(envelopes[i])
	}
	return cat, nil
}

// digestOf is the content address of a canonical profile envelope,
// computed independently of the store.
func digestOf(envelope []byte) string {
	sum := sha256.Sum256(envelope)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// reference holds the in-process answers served results are compared
// against: an engine over the in-memory catalog, and its Table 6.3 rows
// per (workload, predictor spec).
type reference struct {
	eng  *mipp.Engine
	mu   sync.Mutex
	rows map[string][]*api.Result
}

// newReference registers the catalog on an in-memory engine and builds
// the tables of keys, so the measured phase only looks them up.
func newReference(cat *catalog, keys []compileKey) (*reference, error) {
	r := &reference{eng: mipp.NewEngine(), rows: make(map[string][]*api.Result)}
	for _, name := range cat.names {
		if err := r.eng.Register(name, cat.profiles[name]); err != nil {
			return nil, err
		}
	}
	for _, k := range keys {
		if _, err := r.table(k.workload, k.spec); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// table returns the in-process Engine.Evaluate rows of workload over the
// Table 6.3 space, in space order.
func (r *reference) table(workload string, spec api.PredictorSpec) ([]*api.Result, error) {
	key := workload + "|" + spec.Key()
	r.mu.Lock()
	defer r.mu.Unlock()
	if rows, ok := r.rows[key]; ok {
		return rows, nil
	}
	resp, err := r.eng.Evaluate(context.Background(), &api.BatchRequest{
		SchemaVersion: api.SchemaVersion,
		Workloads:     []string{workload},
		Space:         &api.SpaceSpec{Kind: "design"},
		Options:       spec,
	})
	if err != nil {
		return nil, err
	}
	rows := make([]*api.Result, len(resp.Items))
	for i, it := range resp.Items {
		if it.Result == nil {
			return nil, fmt.Errorf("reference %s config %d: %s", workload, i, it.Error)
		}
		rows[i] = it.Result
	}
	r.rows[key] = rows
	return rows, nil
}

// tableSpace is the Table 6.3 design space in the order "design" expands.
var tableSpace = arch.TableSpace()
