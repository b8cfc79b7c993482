package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"mipp"
	"mipp/client"
	"mipp/router"
	"mipp/server"
	"mipp/store"
)

// tier is one booted serving topology: mippd replicas over a shared
// profile store directory, optionally behind a mipp-router, each on its
// own loopback listener.
type tier struct {
	stores  []*store.Store
	engines []*mipp.Engine
	servers []*server.Server
	// routerTransport carries the router's connections to the replicas.
	routerTransport *http.Transport
	// replicaURLs are the replicas' base URLs; front is the URL clients
	// talk to (the router's when there is one).
	replicaURLs []string
	front       string
	listeners   []*listener
}

// listener is one loopback HTTP server and the goroutine serving it.
type listener struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(l.done)
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("listener %s: %v\n", l.url, err)
		}
	}()
	return l, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close()
	}
	<-l.done
}

// bootReplicas starts n mippd replicas, each opening storeDir with the
// given store options, and a router in front of them when routed.
func bootReplicas(b *bench, storeDir string, n int, routed bool, opts ...store.Option) (*tier, error) {
	t := &tier{}
	for i := 0; i < n; i++ {
		st, err := store.Open(storeDir, opts...)
		if err != nil {
			t.close()
			return nil, err
		}
		eng := mipp.NewEngine(mipp.WithEngineStore(profileStore(st, b.rec)))
		srv := server.New(eng)
		l, err := listen(timed(b.rec, layerServer, srv))
		if err != nil {
			eng.Close()
			t.close()
			return nil, err
		}
		t.stores = append(t.stores, st)
		t.engines = append(t.engines, eng)
		t.servers = append(t.servers, srv)
		t.listeners = append(t.listeners, l)
		t.replicaURLs = append(t.replicaURLs, l.url)
	}
	t.front = t.replicaURLs[0]
	if routed {
		if err := t.addRouter(b.rec); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

// addRouter puts a mipp-router in front of the replicas and makes it the
// front URL. The router knows the replicas as http://replica-0,
// http://replica-1, ... and its transport dials their loopback listeners,
// so the consistent-hash placement of workloads on replicas does not
// depend on which ports the listeners got. The transport is otherwise the
// default one mipp-router uses. The health loop is not started: replicas
// stay up for the whole run, and a background prober would add load that
// is not client traffic.
func (t *tier) addRouter(rec *recorder) error {
	names := make([]string, len(t.replicaURLs))
	addrs := make(map[string]string, len(t.replicaURLs))
	for i, u := range t.replicaURLs {
		host := fmt.Sprintf("replica-%d", i)
		names[i] = "http://" + host
		addrs[host+":80"] = strings.TrimPrefix(u, "http://")
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	var dialer net.Dialer
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := addrs[addr]; ok {
			addr = real
		}
		return dialer.DialContext(ctx, network, addr)
	}
	rt, err := router.New(router.Options{
		Replicas:     names,
		Client:       &http.Client{Transport: tr},
		HealthClient: &http.Client{Transport: tr, Timeout: 2 * time.Second},
	})
	if err != nil {
		return err
	}
	l, err := listen(timed(rec, layerRouter, rt))
	if err != nil {
		return err
	}
	t.routerTransport = tr
	t.listeners = append(t.listeners, l)
	t.front = l.url
	return nil
}

// close stops the listeners, router first, then the engines.
func (t *tier) close() {
	for i := len(t.listeners) - 1; i >= 0; i-- {
		t.listeners[i].close()
	}
	t.listeners = nil
	if t.routerTransport != nil {
		t.routerTransport.CloseIdleConnections()
	}
	for _, e := range t.engines {
		e.Close()
	}
	t.engines = nil
}

// writeCatalog stores every catalog profile under each of its names.
func writeCatalog(b *bench, storeDir string, cat *catalog, names map[string]string) error {
	st, err := store.Open(storeDir)
	if err != nil {
		return err
	}
	ps := profileStore(st, b.rec)
	for _, name := range sortedKeys(names) {
		if _, err := ps.Put(name, cat.profiles[names[name]]); err != nil {
			return err
		}
	}
	return nil
}

// newClient returns a client with one keep-alive connection to base.
func newClient(base string) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return client.New(base, client.WithHTTPClient(&http.Client{Transport: tr})), tr
}
