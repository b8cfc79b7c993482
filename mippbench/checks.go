package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"slices"
	"sort"
	"sync"

	"mipp/api"
	"mipp/client"
)

// checker collects correctness-check failures from every client goroutine.
type checker struct {
	mu       sync.Mutex
	ran      int
	failures int
	first    []string
}

func newChecker() *checker { return &checker{} }

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	if len(c.first) < 10 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

// ran counts checks made, failed or not, for the summary line.
func (c *checker) count(n int) {
	c.mu.Lock()
	c.ran += n
	c.mu.Unlock()
}

// report prints the summary and returns whether every check held.
func (c *checker) report(workload string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Printf("%s: correctness checks: %d made, %d failed\n", workload, c.ran, c.failures)
	for _, f := range c.first {
		fmt.Fprintf(os.Stderr, "%s: check failed: %s\n", workload, f)
	}
	return c.failures == 0
}

// relEq reports whether a and b agree to rel relative tolerance.
func relEq(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// sumTol is the relative tolerance of the sum identities: the components
// are summed in a different order than the model sums them.
const sumTol = 1e-9

// checkResult applies the per-result properties: every number finite, the
// headline numbers positive and the breakdowns non-negative, the CPI stack
// summing to cycles, the power stack summing to watts, energy = watts ×
// time and time = cycles / frequency. It returns the first violation.
func checkResult(r *api.Result) error {
	if r == nil {
		return fmt.Errorf("missing result")
	}
	type field struct {
		name string
		v    float64
	}
	positive := [...]field{
		{"frequency_ghz", r.FrequencyGHz}, {"cycles", r.Cycles}, {"uops", r.Uops},
		{"instructions", r.Instructions}, {"cpi", r.CPI}, {"time_seconds", r.TimeSeconds},
		{"watts", r.Watts}, {"energy_joules", r.EnergyJoules}, {"edp", r.EDP}, {"ed2p", r.ED2P},
		{"deff", r.Deff}, {"mlp", r.MLP},
		{"cpi_stack.base", r.CPIStack.Base}, {"power.static", r.Power.Static}, {"power.core", r.Power.Core},
	}
	nonNegative := [...]field{
		{"cpi_stack.branch", r.CPIStack.Branch}, {"cpi_stack.icache", r.CPIStack.ICache},
		{"cpi_stack.llc", r.CPIStack.LLCHit}, {"cpi_stack.dram", r.CPIStack.DRAM},
		{"power.fu", r.Power.FU}, {"power.cache", r.Power.Cache}, {"power.dram", r.Power.DRAM},
		{"power.bpred", r.Power.BPred}, {"branch_miss_rate", r.BranchMissRate},
	}
	for _, f := range positive {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v <= 0 {
			return fmt.Errorf("%s %s: %s = %v, want finite and positive", r.Workload, r.Config, f.name, f.v)
		}
	}
	for _, f := range nonNegative {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("%s %s: %s = %v, want finite and non-negative", r.Workload, r.Config, f.name, f.v)
		}
	}
	s := r.CPIStack
	if sum := s.Base + s.Branch + s.ICache + s.LLCHit + s.DRAM; !relEq(sum, r.Cycles, sumTol) {
		return fmt.Errorf("%s %s: CPI stack sums to %v, cycles %v", r.Workload, r.Config, sum, r.Cycles)
	}
	p := r.Power
	if sum := p.Static + p.Core + p.FU + p.Cache + p.DRAM + p.BPred; !relEq(sum, r.Watts, sumTol) {
		return fmt.Errorf("%s %s: power stack sums to %v, watts %v", r.Workload, r.Config, sum, r.Watts)
	}
	if e := r.Watts * r.TimeSeconds; !relEq(e, r.EnergyJoules, sumTol) {
		return fmt.Errorf("%s %s: energy %v, watts × time %v", r.Workload, r.Config, r.EnergyJoules, e)
	}
	if ts := r.Cycles / (r.FrequencyGHz * 1e9); !relEq(ts, r.TimeSeconds, sumTol) {
		return fmt.Errorf("%s %s: time %v, cycles / frequency %v", r.Workload, r.Config, r.TimeSeconds, ts)
	}
	return nil
}

// sameResult reports the first field where a served result differs from
// the in-process one; they must agree value for value.
func sameResult(served, want *api.Result) error {
	if served == nil || want == nil {
		return fmt.Errorf("missing result")
	}
	a, b := served, want
	same := a.Workload == b.Workload && a.Config == b.Config && a.FrequencyGHz == b.FrequencyGHz &&
		a.Cycles == b.Cycles && a.Uops == b.Uops && a.Instructions == b.Instructions &&
		a.CPI == b.CPI && a.TimeSeconds == b.TimeSeconds && a.CPIStack == b.CPIStack &&
		a.Power == b.Power && a.Watts == b.Watts && a.EnergyJoules == b.EnergyJoules &&
		a.EDP == b.EDP && a.ED2P == b.ED2P && a.Deff == b.Deff && a.MLP == b.MLP &&
		a.BranchMissRate == b.BranchMissRate && slices.Equal(a.MicroCPI, b.MicroCPI)
	if !same {
		return fmt.Errorf("served %s %s differs from in-process %s %s: %+v vs %+v",
			a.Workload, a.Config, b.Workload, b.Config, *a, *b)
	}
	return nil
}

// checkTableMonotone checks, on one workload's Table 6.3 rows in space
// order, that a larger ROB or a larger L3 with every other axis fixed never
// raises cycles.
func checkTableMonotone(rows []*api.Result) error {
	if len(rows) != tableSpace.Size() {
		return fmt.Errorf("%d rows, want %d", len(rows), tableSpace.Size())
	}
	const robAxis, l3Axis = 1, 3
	var coords, up []int
	for i, r := range rows {
		coords = tableSpace.Coords(i, coords)
		for _, ax := range []int{robAxis, l3Axis} {
			if coords[ax] == 2 {
				continue
			}
			up = append(up[:0], coords...)
			up[ax]++
			if bigger := rows[tableSpace.Index(up)]; bigger.Cycles > r.Cycles {
				return fmt.Errorf("%s: %s has %v cycles, larger %s has %v", r.Workload, r.Config, r.Cycles, bigger.Config, bigger.Cycles)
			}
		}
	}
	return nil
}

// checkDVFS checks one workload's results across the DVFS operating
// points: the base, branch, icache and LLC-hit cycles do not depend on the
// clock, and DRAM cycles never fall as the frequency rises.
func checkDVFS(rows []*api.Result) error {
	s := slices.Clone(rows)
	sort.SliceStable(s, func(i, j int) bool { return s[i].FrequencyGHz < s[j].FrequencyGHz })
	for i := 1; i < len(s); i++ {
		a, b := s[i-1].CPIStack, s[i].CPIStack
		if a.Base != b.Base || a.Branch != b.Branch || a.ICache != b.ICache || a.LLCHit != b.LLCHit {
			return fmt.Errorf("%s: clock-invariant CPI components differ between %s and %s: %+v vs %+v",
				s[i].Workload, s[i-1].Config, s[i].Config, a, b)
		}
		if b.DRAM < a.DRAM {
			return fmt.Errorf("%s: DRAM cycles fall from %v at %s to %v at %s",
				s[i].Workload, a.DRAM, s[i-1].Config, b.DRAM, s[i].Config)
		}
	}
	return nil
}

// servedDVFS sweeps every catalog workload over the DVFS space through the
// workload's front door and checks each result and the DVFS properties.
func servedDVFS(ctx context.Context, b *bench, c *client.Client, names map[string]string) error {
	for _, name := range sortedKeys(names) {
		resp, err := c.Sweep(ctx, &api.SweepRequest{
			SchemaVersion: api.SchemaVersion,
			Workload:      name,
			Space:         &api.SpaceSpec{Kind: "dvfs"},
		})
		if err != nil {
			return fmt.Errorf("dvfs sweep of %s: %w", name, err)
		}
		for _, r := range resp.Results {
			if err := checkResult(r); err != nil {
				b.checks.failf("dvfs sweep: %v", err)
			}
		}
		if err := checkDVFS(resp.Results); err != nil {
			b.checks.failf("dvfs sweep: %v", err)
		}
		b.checks.count(len(resp.Results) + 1)
	}
	return nil
}

// servedDigests checks that the digest the tier reports for each stored
// name equals the benchmark's own sha256 of the canonical envelope.
func servedDigests(ctx context.Context, b *bench, c *client.Client, names map[string]string) error {
	for _, name := range sortedKeys(names) {
		info, err := c.ProfileInfo(ctx, name)
		if err != nil {
			return fmt.Errorf("profile info %s: %w", name, err)
		}
		if want := b.cat.digests[names[name]]; info.Profile.Digest != want {
			b.checks.failf("profile %s: served digest %s, own sha256 %s", name, info.Profile.Digest, want)
		}
		b.checks.count(1)
	}
	return nil
}

// digester hashes the predictions a client checked during its first
// limit operations, so two runs of one seed can show bit-identical output
// whatever their speed.
type digester struct {
	h     hash.Hash
	ops   int
	limit int
}

func newDigester(limit int) *digester { return &digester{h: sha256.New(), limit: limit} }

// add hashes v (JSON-encoded, which round-trips every float64 exactly)
// while the client is within its first limit operations.
func (d *digester) add(v any) {
	if d.ops >= d.limit {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("digest: marshal %T: %v", v, err))
	}
	d.h.Write(data)
}

// done marks the end of one operation.
func (d *digester) done() { d.ops++ }

// combineDigests hashes the clients' digests in client order.
func combineDigests(ds []*digester) (string, int) {
	h := sha256.New()
	ops := 0
	for i, d := range ds {
		h.Write(d.h.Sum(nil))
		if i == 0 || min(d.ops, d.limit) < ops {
			ops = min(d.ops, d.limit)
		}
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), ops
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
