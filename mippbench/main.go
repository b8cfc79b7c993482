// Command mippbench drives the served mipp tier — profiler, store, engine,
// batch kernel, search, mippd server, mipp-router and client — from the
// outside, in one process, over three named workloads, and prints every
// end-to-end metric with its unit, the operations attempted and failed, and
// whether every correctness check passed. With --trace 1 it instead records
// spans around each layer's public calls and prints the per-layer metrics.
//
// Usage (from the root of a checkout):
//
//	bash mippbench/run.sh --workload design-sweep --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See mippbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times an untraced run sets the tier up from
// scratch; setup_s is the median, which damps one slow repetition.
const setupRepeats = 3

// clientConns is the closed-loop client count: one connection each, never
// more than the machine's CPUs.
func clientConns() int { return min(2, runtime.NumCPU()) }

// workload is one named traffic mix against the served tier.
type workload struct {
	name string
	// boot brings the tier up over a freshly profiled catalog and warms it.
	boot func(ctx context.Context, b *bench, cat *catalog) (*tier, error)
	// run drives the measured phase until the deadline, in whole rounds.
	run func(ctx context.Context, b *bench, t *tier, deadline time.Time) (*phase, error)
	// verify runs the post-phase checks that need the whole run.
	verify func(ctx context.Context, b *bench, t *tier) error
	// layers fills the per-layer metrics of a traced run.
	layers func(ctx context.Context, b *bench, t *tier, ph *phase, m metrics) error
	// refs are the (workload, spec) Table 6.3 tables the checks compare
	// against, built before the measured phase.
	refs func() []compileKey
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

// bench is one run's shared state.
type bench struct {
	seed    int64
	rec     *recorder // nil unless --trace 1
	workDir string
	checks  *checker
	ref     *reference
	cat     *catalog
	// cacheBefore and cacheAfter are the replicas' predictor-cache hits
	// and misses when the measured phase starts and ends.
	cacheBefore, cacheAfter [2]uint64
	// phaseSpans are the spans recorded up to the end of the measured
	// phase (traced runs only).
	phaseSpans []span
}

// phase is the outcome of a measured phase.
type phase struct {
	attempted, failed int
	points            int64
	latenciesMs       []float64
	elapsed           time.Duration
	// rate is the points per second over the whole measured phase.
	rate      float64
	digest    string
	digestOps int
}

// metrics maps a metric name to its value and unit.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 records per-layer spans and prints per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "mippbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mippbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mippbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func runWorkload(w *workload, seed int64, measure time.Duration, traced bool) (*result, error) {
	ctx := context.Background()
	workDir, err := filepath.Abs(filepath.Join(".bench_build", "mippbench", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	b := &bench{seed: seed, workDir: workDir, checks: newChecker()}
	repeats := setupRepeats
	if traced {
		b.rec = newRecorder()
		repeats = 1
	}

	// Set up from scratch several times; keep the last tier for the
	// measured phase.
	var setups []float64
	var t *tier
	for i := 0; i < repeats; i++ {
		if t != nil {
			t.close()
			t = nil
		}
		runtime.GC()
		start := time.Now()
		cat, err := profileCatalog(b.rec)
		if err != nil {
			return nil, err
		}
		b.cat = cat
		t, err = w.boot(ctx, b, cat)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer t.close()
	fmt.Printf("%s: setup_s samples %s\n", w.name, formatFloats(setups))

	ref, err := newReference(b.cat, w.refs())
	if err != nil {
		return nil, err
	}
	b.ref = ref
	runtime.GC()
	b.cacheBefore[0], b.cacheBefore[1] = engineTotals(t)
	ph, err := w.run(ctx, b, t, time.Now().Add(measure))
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	b.cacheAfter[0], b.cacheAfter[1] = engineTotals(t)
	if traced {
		b.phaseSpans = b.rec.snapshot()
	}
	if err := w.verify(ctx, b, t); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}

	e2e := metrics{}
	e2e.set("setup_s", median(setups), "s")
	e2e.set("points_per_s", ph.rate, "points/s")
	e2e.set("latency_p50_ms", percentile(ph.latenciesMs, 50), "ms")
	e2e.set("latency_p90_ms", percentile(ph.latenciesMs, 90), "ms")
	e2e.set("peak_rss_mb", peakRSSMiB(), "MiB")
	if len(ph.latenciesMs) < 100 {
		b.checks.failf("only %d latency samples; p90 needs at least 100", len(ph.latenciesMs))
	}
	fmt.Printf("%s: %d latency samples, %d points in %.3fs, %d attempted, %d failed\n",
		w.name, len(ph.latenciesMs), ph.points, ph.elapsed.Seconds(), ph.attempted, ph.failed)
	fmt.Printf("%s: prediction digest %s over the first %d operations of each client\n", w.name, ph.digest, ph.digestOps)

	res := &result{Attempted: ph.attempted, Failed: ph.failed}
	if traced {
		fmt.Printf("%s: traced end-to-end (compare with an untraced run for the tracing overhead):%s\n",
			w.name, formatMetrics(e2e))
		lm := metrics{}
		if err := w.layers(ctx, b, t, ph, lm); err != nil {
			return nil, fmt.Errorf("layer metrics: %w", err)
		}
		spansPath := filepath.Join(filepath.Dir(workDir), fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := b.rec.write(spansPath); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("%s: spans written to %s\n", w.name, spansPath)
		res.Metrics = lm
	} else {
		res.Metrics = e2e
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.checks.failf("metric %s is %v", name, m.Value)
		}
	}
	res.Correct = b.checks.report(w.name)
	return res, nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

func formatFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

func formatMetrics(m metrics) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, " %s=%.6g%s", n, m[n].Value, m[n].Unit)
	}
	return sb.String()
}
