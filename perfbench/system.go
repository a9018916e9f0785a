package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"daccor/internal/core"
	"daccor/internal/engine"
	"daccor/internal/fleet"
	"daccor/internal/monitor"
	"daccor/internal/realtime"
	"daccor/pkg/client"
)

// system is one workload's deployment in this process: the engine and,
// depending on the workload, a loopback realtime server with its watch
// stream or a fleet aggregator with a sync client. At most two
// loopback connections exist: one carries ingest or sync, the other
// the watch stream or the aggregator reads.
type system struct {
	w    workload
	eng  *engine.Engine
	devs []*engine.Device
	ids  []string

	servers    []*http.Server
	transports []*http.Transport

	// http-sparse
	api     *client.Client
	watcher *client.Watcher
	cancel  context.CancelFunc

	// fleet-sync
	agg    *fleet.Aggregator
	sync   *fleet.SyncClient
	aggAPI *client.Client
}

// newEngine builds an engine with the benchmark's configuration and
// the given partition count.
func newEngine(w workload, ids []string, partitions int) (*engine.Engine, error) {
	return engine.New(
		engine.WithAnalyzer(core.Config{ItemCapacity: w.capacity, PairCapacity: w.capacity}),
		engine.WithMonitor(monitor.Config{Window: monitor.StaticWindow(window)}),
		engine.WithBackpressure(engine.Block),
		engine.WithPartitions(partitions),
		engine.WithDevices(ids...),
	)
}

// oneConn returns an HTTP client limited to a single keep-alive
// connection.
func (s *system) oneConn() *http.Client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	s.transports = append(s.transports, t)
	return &http.Client{Transport: t}
}

// serve starts h on a loopback listener and returns its base URL.
func (s *system) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on close
	return "http://" + ln.Addr().String(), nil
}

// setup builds the workload's system and returns once it is ready for
// load: engine built and devices registered, listeners serving, watch
// connected and its first frame received, first sync acked.
func setup(w workload, ids []string) (*system, error) {
	s := &system{w: w, ids: ids}
	eng, err := newEngine(w, ids, w.partitions)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	for _, id := range ids {
		d, err := eng.Device(id)
		if err != nil {
			s.close()
			return nil, err
		}
		s.devs = append(s.devs, d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	switch {
	case w.ingest == ingestHTTP:
		base, err := s.serve(realtime.NewEngineHandler(eng))
		if err != nil {
			s.close()
			return nil, err
		}
		s.api = client.New(base, client.WithHTTPClient(s.oneConn()))
		s.watcher, err = client.New(base, client.WithHTTPClient(s.oneConn())).
			Watch(ctx, "", client.Query{Support: support, Top: topK})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("watch: %w", err)
		}
		if _, err := s.firstFrame(10 * time.Second); err != nil {
			s.close()
			return nil, err
		}
	case w.observer == observeSync:
		s.agg = fleet.NewAggregator(fleet.Config{})
		base, err := s.serve(fleet.NewHandler(s.agg))
		if err != nil {
			s.close()
			return nil, err
		}
		s.sync, err = fleet.NewSyncClient(fleet.ClientConfig{
			Aggregator: base, Collector: "bench", Engine: eng,
			// One attempt per round: a failed round is recorded with its
			// error, not retried out of sight.
			MaxAttempts: 1,
			HTTPClient:  s.oneConn(),
		})
		if err != nil {
			s.close()
			return nil, err
		}
		if _, err := s.sync.SyncNow(ctx); err != nil {
			s.close()
			return nil, fmt.Errorf("first sync: %w", err)
		}
		s.aggAPI = client.New(base, client.WithHTTPClient(s.oneConn()))
	}
	return s, nil
}

// firstFrame waits for the watch stream's initial state.
func (s *system) firstFrame(timeout time.Duration) (client.WatchState, error) {
	select {
	case st, ok := <-s.watcher.Events():
		if !ok {
			return st, fmt.Errorf("watch ended before its first frame: %v", s.watcher.Err())
		}
		return st, nil
	case <-time.After(timeout):
		return client.WatchState{}, errors.New("no watch frame within the timeout")
	}
}

// close stops everything setup started and waits for it.
func (s *system) close() {
	if s.watcher != nil {
		s.watcher.Close()
	}
	if s.cancel != nil {
		s.cancel()
	}
	if s.eng != nil {
		s.eng.Stop()
	}
	if s.agg != nil {
		s.agg.Close()
	}
	for _, srv := range s.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close()
		}
		cancel()
	}
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
}
