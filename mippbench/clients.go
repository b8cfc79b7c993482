package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"mipp/api"
	"mipp/client"
)

// benchClient is one closed-loop client: one connection, its own seeded
// input stream, and its own tallies.
type benchClient struct {
	id  int
	c   *client.Client
	tr  *http.Transport
	rng *rand.Rand
	rec *recorder
	dig *digester

	attempted, failed int
	points            int64
	latenciesMs       []float64
}

// call runs one client call under request ID rid, recording a client span
// when tracing, and returns its latency.
func (bc *benchClient) call(ctx context.Context, rid string, f func(ctx context.Context) error) (time.Duration, error) {
	ctx = api.ContextWithRequestID(ctx, rid)
	var recStart int64
	if bc.rec != nil {
		recStart = bc.rec.now()
	}
	start := time.Now()
	err := f(ctx)
	d := time.Since(start)
	if bc.rec != nil {
		bc.rec.add(span{Layer: layerClient, RID: rid, Start: recStart, End: bc.rec.now()})
	}
	return d, err
}

// rid names operation k of this client; primary operations carry the
// prefix the span analysis selects on.
func (bc *benchClient) rid(primary bool, k, j int) string {
	prefix := "aux-"
	if primary {
		prefix = primaryRID
	}
	return fmt.Sprintf("%s%d-%d-%d", prefix, bc.id, k, j)
}

// runClients drives clientConns() closed-loop clients against base until
// the deadline. Each client calls round(k) for k = 0, 1, ...; the clients
// start every round together, and the deadline is checked only between
// rounds, so every run attempts whole rounds of the same operations.
//
// Starting rounds together keeps the clients in step. Left free, two
// closed-loop clients on two cores fall into step or out of step and can
// stay there for a whole run, so runs of the same code differ by which
// state they happened to hold (README, "End-to-end metrics").
func runClients(ctx context.Context, b *bench, base string, deadline time.Time, digestOps int,
	round func(ctx context.Context, bc *benchClient, k int) error) (*phase, error) {
	n := clientConns()
	clients := make([]*benchClient, n)
	for i := range clients {
		c, tr := newClient(base)
		clients[i] = &benchClient{
			id: i, c: c, tr: tr, rec: b.rec, dig: newDigester(digestOps),
			rng: rand.New(rand.NewPCG(uint64(b.seed), uint64(i))),
		}
	}
	bar := newBarrier(n, deadline)
	start := time.Now()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, bc := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer bc.tr.CloseIdleConnections()
			for k := 0; bar.wait(); k++ {
				if err := round(ctx, bc, k); err != nil {
					errs[i] = fmt.Errorf("client %d round %d: %w", i, k, err)
					bar.abort()
					return
				}
			}
		}()
	}
	wg.Wait()
	ph := &phase{elapsed: time.Since(start)}
	for i, bc := range clients {
		if errs[i] != nil {
			return nil, errs[i]
		}
		ph.attempted += bc.attempted
		ph.failed += bc.failed
		ph.points += bc.points
		ph.latenciesMs = append(ph.latenciesMs, bc.latenciesMs...)
	}
	ph.rate = float64(ph.points) / ph.elapsed.Seconds()
	dig := make([]*digester, n)
	for i, bc := range clients {
		dig[i] = bc.dig
	}
	ph.digest, ph.digestOps = combineDigests(dig)
	return ph, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// barrier lets n clients start each round together. The last client to
// arrive decides, once for all, whether another round starts.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	waiting  int
	gen      int
	more     bool
	aborted  bool
	deadline time.Time
}

func newBarrier(n int, deadline time.Time) *barrier {
	b := &barrier{n: n, deadline: deadline}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until every client has arrived and reports whether they
// start another round: false once the deadline has passed or a client
// has aborted.
func (b *barrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return false
	}
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.gen++
		b.more = time.Now().Before(b.deadline)
		b.cond.Broadcast()
		return b.more
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
	return b.more && !b.aborted
}

// abort releases every waiting client and ends the phase for all.
func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.mu.Unlock()
	b.cond.Broadcast()
}
