package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/memoshare"
	"repro/internal/serve"
	"repro/internal/store"
)

// daemonSeed is the -seed default motifd and motifctl apply.
const daemonSeed = 7

// listener is one daemon's HTTP front on a loopback ephemeral port.
type listener struct {
	name string
	url  string
	srv  *http.Server
	done chan struct{} // closed when Serve returns
}

func listen(name string, h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen for %s: %w", name, err)
	}
	l := &listener{
		name: name,
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return l, nil
}

func (l *listener) shutdown(ctx context.Context) error {
	err := l.srv.Shutdown(ctx)
	<-l.done
	if err != nil {
		return fmt.Errorf("shutdown %s: %w", l.name, err)
	}
	return nil
}

// worker is one motifd instance: the serving layer, its HTTP front, and,
// in a cluster, its membership agent.
type worker struct {
	srv   *serve.Server
	http  *listener
	agent *cluster.Agent
	store *store.JobStore
}

// daemons is the booted topology of one workload. front is the URL the
// client submits to: motifctl's in a cluster, the one motifd's otherwise.
type daemons struct {
	front    string
	coord    *cluster.Coordinator
	coordH   *listener
	coordWAL *store.JobStore
	workers  []*worker
	dir      string // WAL directory, removed on close
}

// boot starts the workload's daemons with the defaults motifd and motifctl
// apply (zero-valued configs fill them in), overriding only what the
// workload states, and returns once every daemon serves and every worker is
// registered.
func boot(ctx context.Context, w *workload, workDir string) (d *daemons, err error) {
	d = &daemons{}
	defer func() {
		if err != nil {
			_ = d.close()
			d = nil
		}
	}()
	if w.wal {
		if d.dir, err = os.MkdirTemp(workDir, "wal-"); err != nil {
			return d, fmt.Errorf("wal dir: %w", err)
		}
	}
	if w.workers == 0 {
		wk, err := startWorker(d, "motifd", w, w.wal)
		if err != nil {
			return d, err
		}
		d.front = wk.http.url
		return d, waitHealthy(ctx, d.front)
	}

	cfg := cluster.Config{Seed: daemonSeed}
	if w.wal {
		if d.coordWAL, err = store.Open(filepath.Join(d.dir, "motifctl"), store.Options{}); err != nil {
			return d, fmt.Errorf("open coordinator store: %w", err)
		}
		cfg.Store = d.coordWAL
	}
	if d.coord, err = cluster.NewCoordinator(cfg); err != nil {
		return d, fmt.Errorf("start coordinator: %w", err)
	}
	if d.coordH, err = listen("motifctl", d.coord.Handler()); err != nil {
		return d, err
	}
	d.front = d.coordH.url
	for i := 0; i < w.workers; i++ {
		wk, err := startWorker(d, fmt.Sprintf("motifd-%d", i), w, false)
		if err != nil {
			return d, err
		}
		if wk.agent, err = cluster.StartAgent(cluster.AgentConfig{
			CoordinatorURL: d.front,
			ID:             wk.http.name,
			Addr:           wk.http.url,
			Server:         wk.srv,
			Seed:           daemonSeed,
		}); err != nil {
			return d, fmt.Errorf("start agent %s: %w", wk.http.name, err)
		}
		if wk.srv.MemoCache() != nil {
			wk.srv.SetPeerFetcher(memoshare.NewFetcher(memoshare.FetcherConfig{
				Cache:       wk.srv.MemoCache(),
				Self:        wk.agent.ID(),
				Coordinator: wk.agent.CoordinatorURL,
				Tracer:      wk.srv.Tracer(),
			}))
		}
	}
	if err := waitHealthy(ctx, d.front); err != nil {
		return d, err
	}
	for _, wk := range d.workers {
		if err := waitHealthy(ctx, wk.http.url); err != nil {
			return d, err
		}
	}
	return d, waitRegistered(ctx, d.coord, w.workers)
}

// startWorker starts one motifd, with its own WAL when wal is set.
func startWorker(d *daemons, name string, w *workload, wal bool) (*worker, error) {
	wk := &worker{}
	cfg := serve.Config{Seed: daemonSeed, MemoBytes: w.memoBytes}
	if wal {
		js, err := store.Open(filepath.Join(d.dir, name), store.Options{})
		if err != nil {
			return nil, fmt.Errorf("open %s store: %w", name, err)
		}
		wk.store, cfg.Store = js, js
	}
	wk.srv = serve.New(cfg)
	d.workers = append(d.workers, wk)
	l, err := listen(name, wk.srv.Handler())
	if err != nil {
		return nil, err
	}
	wk.http = l
	return wk, nil
}

var setupClient = &http.Client{Timeout: 2 * time.Second}

// waitHealthy polls GET /healthz until the daemon answers ok.
func waitHealthy(ctx context.Context, base string) error {
	for {
		resp, err := setupClient.Get(base + "/healthz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if ok {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became healthy: %w", base, ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// waitRegistered waits until the coordinator counts n live workers.
func waitRegistered(ctx context.Context, c *cluster.Coordinator, n int) error {
	for c.Metrics().LiveWorkers < n {
		select {
		case <-ctx.Done():
			return fmt.Errorf("workers never registered: %w", ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
	return nil
}

// close shuts everything down in dependency order — agents, coordinator,
// workers, stores — and removes the WAL directory.
func (d *daemons) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, wk := range d.workers {
		if wk.agent != nil {
			wk.agent.Stop()
		}
	}
	if d.coordH != nil {
		errs = append(errs, d.coordH.shutdown(ctx))
	}
	if d.coord != nil {
		errs = append(errs, d.coord.Shutdown(ctx))
	}
	for _, wk := range d.workers {
		if wk.http != nil {
			errs = append(errs, wk.http.shutdown(ctx))
		}
		errs = append(errs, wk.srv.Shutdown(ctx))
		errs = append(errs, wk.store.Close())
	}
	errs = append(errs, d.coordWAL.Close())
	if d.dir != "" {
		errs = append(errs, os.RemoveAll(d.dir))
	}
	return errors.Join(errs...)
}
