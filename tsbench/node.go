package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/client"
	"repro/internal/catalog"
	"repro/internal/integrity"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
)

// Settings tsdbd starts with when given no flags (cmd/tsdbd/main.go).
const (
	cacheBytes      = 32 << 20
	walSegmentBytes = 64 << 20
	requestTimeout  = 15 * time.Second
	maxBodyBytes    = 1 << 20
	ingestMaxBytes  = 1 << 30
	// clients is the number of closed-loop clients in corrections and
	// history-reads. One keeps a second client's requests from
	// contending for the reference machine's two vCPUs: with two, the
	// run-to-run spread was four times as wide (see README).
	clients = 1
	// maxConns caps the client's connections: one per vCPU of the
	// reference machine.
	maxConns = 2
)

// node is one in-process tsdbd: a catalog behind the real server handler
// on a loopback listener.
type node struct {
	url     string
	dataDir string
	cat     *catalog.Catalog
	wal     *wal.Log
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	fol     *repl.Follower
	folStop context.CancelFunc
	folDone chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// startPrimary boots a primary configured like tsdbd's defaults: WAL on
// with group sync, integrity on with a signer, a 32 MiB query cache and
// default admission. walFS, when set, replaces the WAL's file system (the
// traced run's timing seam); wrap, when set, wraps the server handler.
func startPrimary(dir string, walFS wal.FS, wrap func(http.Handler) http.Handler) (*node, error) {
	n, err := openPrimaryCatalog(dir, walFS)
	if err != nil {
		return nil, err
	}
	if err := n.serve(server.Config{Catalog: n.cat}, wrap); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// openPrimaryCatalog opens the primary's WAL and catalog without serving
// them; the direct ladder drives such a catalog through its methods.
func openPrimaryCatalog(dir string, walFS wal.FS) (*node, error) {
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	opts := wal.Options{Dir: walDir, Sync: wal.SyncGroup, SegmentBytes: walSegmentBytes}
	if walFS != nil {
		opts.FS = walFS
	}
	w, err := wal.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	signer, err := integrity.LoadOrCreateSigner(filepath.Join(dir, "integrity.ed25519"))
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("loading signer: %w", err)
	}
	cat := catalog.New(catalog.Config{Dir: dir, WAL: w, CacheBytes: cacheBytes, Signer: signer})
	if err := cat.Open(); err != nil {
		w.Close()
		return nil, fmt.Errorf("opening catalog: %w", err)
	}
	return &node{dataDir: dir, cat: cat, wal: w}, nil
}

// startFollower boots a follower the way `tsdbd -follow` does: no WAL of
// its own, the same cache, tailing primary with the default follower
// settings.
func startFollower(dir, primary string) (*node, error) {
	cat := catalog.New(catalog.Config{Dir: dir, CacheBytes: cacheBytes, Follower: true})
	if err := cat.Open(); err != nil {
		return nil, fmt.Errorf("opening follower catalog: %w", err)
	}
	fol := repl.NewFollower(repl.FollowerConfig{Primary: primary, Catalog: cat})
	ctx, cancel := context.WithCancel(context.Background())
	n := &node{dataDir: dir, cat: cat, fol: fol, folStop: cancel, folDone: make(chan struct{})}
	go func() {
		defer close(n.folDone)
		fol.Run(ctx)
	}()
	if err := n.serve(server.Config{Catalog: cat, Follower: fol}, nil); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

func (n *node) serve(cfg server.Config, wrap func(http.Handler) http.Handler) error {
	cfg.RequestTimeout = requestTimeout
	cfg.MaxBodyBytes = maxBodyBytes
	cfg.IngestMaxBytes = ingestMaxBytes
	n.srv = server.New(cfg)
	h := n.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.url = "http://" + ln.Addr().String()
	n.hs = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	n.served = make(chan struct{})
	go func() {
		defer close(n.served)
		n.hs.Serve(ln)
	}()
	return nil
}

// close shuts the node down the way tsdbd does on SIGTERM (drain, stop
// serving, flush the catalog) and waits for every goroutine it started.
// Later calls return the first call's error.
func (n *node) close() error {
	n.closeOnce.Do(func() { n.closeErr = n.shutdown() })
	return n.closeErr
}

func (n *node) shutdown() error {
	var errs []error
	if n.hs != nil {
		n.srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, n.hs.Shutdown(ctx))
		cancel()
		<-n.served
	}
	if n.folStop != nil {
		n.folStop()
		<-n.folDone
	}
	errs = append(errs, n.cat.Close())
	if n.wal != nil {
		errs = append(errs, n.wal.Close())
	}
	return errors.Join(errs...)
}

// latTransport records each request's round-trip time.
type latTransport struct {
	base http.RoundTripper
	mu   sync.Mutex
	lat  latencies
}

func (t *latTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(start)
	t.mu.Lock()
	t.lat.add(classOf(req.URL.Path), d)
	t.mu.Unlock()
	return resp, err
}

// bootPrimary starts a primary, instrumented when p is non-nil.
func bootPrimary(dir string, p *probe) (*node, error) {
	if p == nil {
		return startPrimary(dir, nil, nil)
	}
	p.fs = &timedFS{FS: wal.DirFS(filepath.Join(dir, "wal")), tr: p.tr}
	return startPrimary(dir, p.fs, traceHandler(p.tr))
}

// clientFor builds the workload's client: the latency hook (when lt is
// set) innermost, the span transport around it when traced.
// The transport is capped at maxConns connections.
func clientFor(n *node, p *probe, lt *latTransport) *client.Client {
	var base http.RoundTripper = &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	if lt != nil {
		lt.base, base = base, lt
	}
	if p != nil {
		base = &timedTransport{base: base, tr: p.tr}
	}
	return client.New(n.url, client.WithHTTPClient(&http.Client{Transport: base, Timeout: 60 * time.Second}))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// versionsHeld sums the element versions every relation of cat holds.
func versionsHeld(cat *catalog.Catalog) (int, error) {
	total := 0
	for _, name := range cat.Names() {
		e, err := cat.Get(name)
		if err != nil {
			return 0, err
		}
		total += e.Info().Versions
	}
	return total, nil
}
