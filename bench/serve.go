package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"configwall/internal/core"
	"configwall/internal/serve"
	"configwall/internal/store"
)

// spanHeader carries the id of the client's request span to the handler
// wrapper, so the handler span it records is that request's child. It is
// the benchmark's own header; the server does not read it.
const spanHeader = "X-Bench-Span"

// daemon is one in-process cwserve: runner, server, loopback listener and
// a client, with the benchmark's span hooks on both sides of the wire.
type daemon struct {
	runner *core.Runner
	srv    *serve.Server
	ts     *httptest.Server
	client *serve.Client
	dir    string // the store's directory, removed on close; empty without a store
	rec    atomic.Pointer[recorder]
}

// boot starts a daemon. With storeParent set it runs over an empty disk
// store in a fresh directory there and keeps at most maxCells in memory.
func boot(storeParent string, maxCells int) (*daemon, error) {
	d := &daemon{}
	opts := core.RunnerOptions{Workers: workers}
	if storeParent != "" {
		dir, err := os.MkdirTemp(storeParent, "store-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
		disk, err := store.Open(dir)
		if err != nil {
			d.close()
			return nil, err
		}
		opts.Store, opts.MaxCells = disk, maxCells
	}
	d.runner = core.NewRunnerWith(opts)
	var err error
	if d.srv, err = serve.New(serve.Options{Runner: d.runner}); err != nil {
		d.close()
		return nil, err
	}
	d.ts = httptest.NewServer(http.HandlerFunc(d.handle))
	d.client = serve.NewClient(d.ts.URL)
	d.client.HTTPClient.Transport = &spanTransport{d: d, next: d.client.HTTPClient.Transport}
	return d, nil
}

func (d *daemon) close() {
	if d.client != nil {
		d.client.HTTPClient.CloseIdleConnections()
	}
	if d.ts != nil {
		d.ts.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// handle is the server side of the span hooks: a request that names its
// client span gets a serve.handler span around Server.ServeHTTP.
func (d *daemon) handle(w http.ResponseWriter, r *http.Request) {
	rec := d.rec.Load()
	parent, err := strconv.Atoi(r.Header.Get(spanHeader))
	if rec == nil || err != nil {
		d.srv.ServeHTTP(w, r)
		return
	}
	id := rec.begin("serve.handler", parent, parent)
	d.srv.ServeHTTP(w, r)
	rec.end(id)
}

// spanTransport is the client side: a serve.request span from the moment
// the request is handed to the transport until its body is closed.
type spanTransport struct {
	d    *daemon
	next http.RoundTripper
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := t.d.rec.Load()
	if rec == nil {
		return t.next.RoundTrip(r)
	}
	id := rec.begin("serve.request", -1, -1)
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		rec.end(id)
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { rec.end(id) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.done()
	return err
}

// replay sends one block of zipf-skewed requests over cells and reports it.
func (d *daemon) replay(cells []core.Experiment, requests int, zipfS float64, seed int64) (blockResult, error) {
	before := d.runner.Snapshot()
	rep, err := serve.LoadGen(context.Background(), d.client, serve.LoadGenOptions{
		Experiments: cells,
		Requests:    requests,
		Clients:     workers,
		ZipfS:       zipfS,
		Seed:        seed,
		Verify:      true,
		Retry429:    true,
	})
	if err != nil {
		return blockResult{}, err
	}
	after := d.runner.Snapshot()
	return blockResult{
		ops: rep.Requests, failed: rep.Errors + rep.Mismatched, wall: rep.Elapsed,
		p50: rep.P50, p90: rep.P90, p99: rep.P99,
		tiers: core.CacheStats{
			MemHits:   after.MemHits - before.MemHits,
			StoreHits: after.StoreHits - before.StoreHits,
			Runs:      after.Runs - before.Runs,
			Evictions: after.Evictions - before.Evictions,
		},
		status429: rep.StatusHist[http.StatusTooManyRequests],
		retries:   rep.Retries,
	}, nil
}

// served is serve_hot and serve_churn: the same universe and the same
// client, against a daemon that has everything in memory (hot) or against
// a fresh daemon per block that has nothing (churn).
type served struct {
	ev    env
	churn bool
	cells []core.Experiment
	ref   []core.Result
	want  [][]byte // json.Marshal of each direct result
	hot   *daemon  // serve_hot's one daemon
}

const (
	hotZipf   = 1.4
	churnZipf = 1.1
)

func setupServeHot(ev env) (instance, error)   { return setupServed(ev, false) }
func setupServeChurn(ev env) (instance, error) { return setupServed(ev, true) }

func setupServed(ev env, churn bool) (instance, error) {
	cells, err := universe(ev.sc.serveSizes, core.WorkloadNames())
	if err != nil {
		return nil, err
	}
	s := &served{ev: ev, churn: churn, cells: cells}
	if churn {
		// Warm-up: one whole round, so the first timed round does not pay
		// for the first temp directory, listener and connection pool.
		if b := s.block(0, nil); b.failed > 0 {
			return nil, fmt.Errorf("serve_churn warm-up round: %d of %d requests failed", b.failed, b.ops)
		}
		return s, nil
	}
	if s.hot, err = boot("", 0); err != nil {
		return nil, err
	}
	// Preload every cell, then warm the connections and the hit path.
	if _, err := s.hot.runner.RunAll(context.Background(), cells, core.RunOptions{}); err != nil {
		s.close()
		return nil, err
	}
	// A tenth of a block is enough for that, and keeps set-up time mostly
	// the preload, which the neighbours move less than they move serving.
	if b, err := s.hot.replay(cells, ev.sc.hotRequests/10, hotZipf, 1); err != nil || b.failed > 0 {
		s.close()
		return nil, fmt.Errorf("serve_hot warm-up: %d of %d requests failed: %v", b.failed, b.ops, err)
	}
	return s, nil
}

// bootChurn starts one round's daemon: empty store, small LRU.
func (s *served) bootChurn() (*daemon, error) {
	return boot(s.ev.outDir, s.ev.sc.churnCells)
}

// reference asks the daemon for every cell twice and compares each body
// with json.Marshal of the direct result. On serve_churn the first answer
// is simulated and the second comes from memory or, after eviction, from
// the store, so all three tiers are compared. LoadGen's own Verify then
// holds every later body of a block to the first one for its cell.
func (s *served) reference() (simStats, int, error) {
	var st simStats
	var failed int
	var err error
	if s.ref, st, failed, err = directResults(s.cells); err != nil {
		return st, 0, err
	}
	s.want = make([][]byte, len(s.cells))
	for i, r := range s.ref {
		if s.want[i], err = json.Marshal(r); err != nil {
			return st, 0, err
		}
	}
	d := s.hot
	if s.churn {
		if d, err = s.bootChurn(); err != nil {
			return st, 0, err
		}
		defer d.close()
	}
	for pass := 0; pass < 2; pass++ {
		for i, e := range s.cells {
			body, err := d.client.RunRaw(context.Background(), e, core.RunOptions{})
			if err != nil || !bytes.Equal(body, s.want[i]) {
				failed++
			}
		}
	}
	return st, failed, nil
}

func (s *served) block(seed int64, rec *recorder) blockResult {
	d := s.hot
	requests, zipfS := s.ev.sc.hotRequests, hotZipf
	if s.churn {
		// On ext4 a create or mkdir costs more the more metadata the journal
		// already holds uncommitted: the store's share of a round wandered
		// between 20 and 110 ms with what earlier rounds and runs had left
		// behind. A round starts from a flushed filesystem, outside its wall.
		syscall.Sync()
	}
	start := time.Now()
	if s.churn {
		var err error
		if d, err = s.bootChurn(); err != nil {
			return blockResult{ops: s.ev.sc.churnRequests, failed: s.ev.sc.churnRequests}
		}
		defer d.close()
		requests, zipfS = s.ev.sc.churnRequests, churnZipf
	}
	d.rec.Store(rec)
	// LoadGen treats seed 0 as 1; keep every block's mix distinct.
	b, err := d.replay(s.cells, requests, zipfS, seed+2)
	if err != nil {
		return blockResult{ops: requests, failed: requests}
	}
	if s.churn {
		// A round is boot plus replay: the daemon's start is part of what a
		// cold client waits for. Tear-down is not.
		b.wall = time.Since(start)
	}
	return b
}

func (s *served) layers(m map[string]float64) (int, error) {
	if s.churn {
		return s.storeLayers(m)
	}
	return s.hotLayers(m)
}

// hotLayers times Runner.Peek, the one call of the program under a warm
// /v1/run that the handler span does not separate from the encoding.
func (s *served) hotLayers(m map[string]float64) (int, error) {
	const rounds = 50
	var peeks []float64
	failed := 0
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for _, e := range s.cells {
			if _, ok := s.hot.runner.Peek(e, core.RunOptions{}); !ok {
				failed++
			}
		}
		peeks = append(peeks, float64(time.Since(t0))/float64(len(s.cells)))
	}
	m["core.runner_peek_ns"] = median(peeks)
	return failed, nil
}

// storeLayers calls the disk store directly over the universe.
func (s *served) storeLayers(m map[string]float64) (int, error) {
	dir, err := os.MkdirTemp(s.ev.outDir, "store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	disk, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	var saves, loads, sizes []float64
	failed := 0
	for i, e := range s.cells {
		t0 := time.Now()
		if err := disk.Save(e, core.RunOptions{}, s.ref[i]); err != nil {
			return 0, err
		}
		saves = append(saves, float64(time.Since(t0)))
		info, err := os.Stat(disk.EntryPath(e, core.RunOptions{}))
		if err != nil {
			return 0, err
		}
		sizes = append(sizes, float64(info.Size()))
	}
	for i, e := range s.cells {
		t0 := time.Now()
		res, ok, err := disk.Load(e, core.RunOptions{})
		loads = append(loads, float64(time.Since(t0)))
		if err != nil {
			return 0, err
		}
		if !ok || res.Counters != s.ref[i].Counters {
			failed++
		}
	}
	m["store.save_ns"] = median(saves)
	m["store.load_ns"] = median(loads)
	m["store.entry_bytes"] = median(sizes)
	return failed, nil
}

func (s *served) close() {
	if s.hot != nil {
		s.hot.close()
	}
}
