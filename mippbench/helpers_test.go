package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(samples, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", samples, tc.p, got, tc.want)
		}
	}
	// 100 samples 1..100: the p90 is the 90th, with ten samples beyond it.
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if hundred[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(percentile(samples, 0)) {
		t.Error("percentile of no samples or p=0 should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	for _, tc := range []struct {
		name     string
		parents  []interval
		children []interval
		want     int64
	}{
		{"no children", []interval{{0, 100}}, nil, 100},
		{"one child inside", []interval{{0, 100}}, []interval{{10, 30}}, 80},
		{"overlapping children count once", []interval{{0, 100}}, []interval{{10, 50}, {20, 60}, {55, 70}}, 40},
		{"nested children", []interval{{0, 100}}, []interval{{10, 90}, {20, 30}}, 20},
		{"children clipped to the parent", []interval{{50, 100}}, []interval{{0, 60}, {90, 200}}, 30},
		{"child outside the parent", []interval{{0, 10}}, []interval{{20, 30}}, 10},
		{"overlapping parents merge", []interval{{0, 50}, {40, 100}}, []interval{{45, 55}}, 90},
		{"disjoint parents", []interval{{0, 10}, {20, 30}}, []interval{{5, 25}}, 10},
		{"touching children", []interval{{0, 100}}, []interval{{10, 20}, {20, 30}}, 80},
	} {
		if got := selfTime(tc.parents, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestHTTPLayerTimes(t *testing.T) {
	// One routed operation: the client spans [0,100), the router [10,90)
	// and two concurrent replica sub-requests [20,60) and [30,70).
	spans := []span{
		{Layer: layerClient, RID: "op-1", Start: 0, End: 100},
		{Layer: layerRouter, RID: "op-1", Start: 10, End: 90},
		{Layer: layerServer, RID: "op-1", Start: 20, End: 60},
		{Layer: layerServer, RID: "op-1", Start: 30, End: 70},
		{Layer: layerServer, RID: "aux-1", Start: 0, End: 1000},
	}
	hl, err := httpLayerTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	if hl.ops != 1 || hl.clientSelfMs != 20/1e6 || hl.routerSelfMs != 30/1e6 || hl.fanout != 2 {
		t.Errorf("got %+v, want 1 op, client self 20ns, router self 30ns, fan-out 2", hl)
	}
	if _, err := httpLayerTimes(spans[4:]); err == nil {
		t.Error("no primary operations should be an error")
	}
}

func TestFirstDominated(t *testing.T) {
	for _, tc := range []struct {
		name         string
		times, watts []float64
		want         int
	}{
		{"staircase", []float64{1, 2, 3}, []float64{30, 20, 10}, -1},
		{"single point", []float64{1}, []float64{1}, -1},
		{"dominated in both", []float64{1, 2, 3}, []float64{30, 20, 25}, 2},
		{"dominated by a tie in time", []float64{2, 2}, []float64{10, 11}, 1},
		{"equal points do not dominate", []float64{2, 2}, []float64{10, 10}, -1},
		{"first is dominated", []float64{5, 1}, []float64{5, 1}, 0},
	} {
		if got := firstDominated(tc.times, tc.watts); got != tc.want {
			t.Errorf("%s: firstDominated = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestBarrierRunsWholeRoundsTogether(t *testing.T) {
	const clients = 2
	b := newBarrier(clients, time.Now().Add(50*time.Millisecond))
	rounds := make([]int, clients)
	var wg sync.WaitGroup
	for i := range rounds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b.wait() {
				rounds[i]++
				time.Sleep(time.Duration(i+1) * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if rounds[0] == 0 || rounds[0] != rounds[1] {
		t.Fatalf("rounds per client %v, want equal and non-zero", rounds)
	}
}

func TestBarrierAbortReleasesWaiters(t *testing.T) {
	b := newBarrier(2, time.Now().Add(time.Hour))
	done := make(chan bool)
	go func() { done <- b.wait() }()
	b.abort()
	if <-done {
		t.Fatal("wait after abort reported another round")
	}
	if b.wait() {
		t.Fatal("wait on an aborted barrier reported another round")
	}
}
