// Package e2e holds the process tests: each builds motifd and motifctl,
// starts real processes on loopback ports, talks to them through
// serve.Client, and SIGKILLs a process only once an observed state says
// the kill lands where the test wants it. They are skipped under -short.
package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// bins holds motifd and motifctl, built once per test binary.
var bins struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if bins.dir != "" {
		os.RemoveAll(bins.dir)
	}
	os.Exit(code)
}

// binary returns the path of a freshly built command, motifd or motifctl.
// It skips the calling test under -short.
func binary(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("process test: builds and runs motifd and motifctl")
	}
	bins.once.Do(func() {
		if bins.dir, bins.err = os.MkdirTemp("", "motif-e2e-"); bins.err != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", bins.dir, "repro/cmd/motifd", "repro/cmd/motifctl").CombinedOutput()
		if err != nil {
			bins.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if bins.err != nil {
		t.Fatal(bins.err)
	}
	return filepath.Join(bins.dir, name)
}

// hc carries every test request; the bound keeps a wedged daemon from
// hanging the suite.
var hc = &http.Client{Timeout: 10 * time.Second}

// daemon is one running motifd or motifctl process.
type daemon struct {
	name, addr, base, log string
	cmd                   *exec.Cmd
	exited                chan struct{}
	err                   error // Wait's result, set before exited closes
}

// freeAddr reserves a loopback port for a daemon to listen on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// start runs bin listening on addr (a fresh port when empty) with args,
// logging to a file in the test's temp dir, and waits until it serves.
// The process is SIGKILLed at cleanup if the test left it running.
func start(t *testing.T, bin, name, addr string, args ...string) *daemon {
	t.Helper()
	if addr == "" {
		addr = freeAddr(t)
	}
	d := &daemon{name: name, addr: addr, base: "http://" + addr,
		log: filepath.Join(t.TempDir(), name+".log"), exited: make(chan struct{})}
	logf, err := os.Create(d.log)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.err = d.cmd.Wait(); close(d.exited) }()
	t.Cleanup(d.kill)
	// Up means /healthz answers 200: "ok", or "standby" on a spare.
	eventually(t, d, 10*time.Second, "/healthz 200", func() bool {
		code, _, err := health(d)
		return err == nil && code == http.StatusOK
	})
	return d
}

// health reads a daemon's /healthz: the HTTP status and the "status"
// field. Liveness is not the job API, so it is read off the wire.
func health(d *daemon) (int, string, error) {
	resp, err := hc.Get(d.base + "/healthz")
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	return resp.StatusCode, h.Status, err
}

// worker starts a motifd that joins the coordinators (comma-separated
// URLs) as id.
func worker(t *testing.T, id, coordinators string, args ...string) *daemon {
	t.Helper()
	addr := freeAddr(t)
	return start(t, binary(t, "motifd"), id, addr, append([]string{"-id", id,
		"-coordinator", coordinators, "-advertise", "http://" + addr}, args...)...)
}

// kill SIGKILLs the process and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// drain SIGTERMs the process and requires a clean exit with a "drained"
// line in its log.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		t.Fatalf("%s did not drain:\n%s", d.name, d.logText(t))
	}
	if d.err != nil || !strings.Contains(d.logText(t), "drained") {
		t.Fatalf("%s exit %v without a drain line:\n%s", d.name, d.err, d.logText(t))
	}
}

func (d *daemon) logText(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(d.log)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// eventually polls cond every 20ms until it holds, failing the test after
// within or as soon as d (when non-nil) exits.
func eventually(t *testing.T, d *daemon, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if d != nil {
			select {
			case <-d.exited:
				t.Fatalf("%s exited (%v) waiting for %s:\n%s", d.name, d.err, what, d.logText(t))
			default:
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", within, what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// motifd and motifctl return job API clients for a daemon.
func motifd(d *daemon) *serve.Client[serve.JobStatus] {
	return serve.NewClient[serve.JobStatus](d.base, hc)
}

func motifctl(d *daemon) *serve.Client[cluster.JobView] {
	return serve.NewClient[cluster.JobView](d.base, hc)
}

// metrics decodes a daemon's /metrics into M: serve.MetricsSnapshot or
// cluster.MetricsSnapshot.
func metrics[M, S any](t *testing.T, c *serve.Client[S]) M {
	t.Helper()
	var m M
	if err := c.Metrics(context.Background(), &m); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	return m
}

// submit posts a JSON job request and requires 202.
func submit[S any](t *testing.T, c *serve.Client[S], req string) S {
	t.Helper()
	s, err := c.Submit(context.Background(), []byte(req))
	if err != nil {
		t.Fatalf("submit %s: %v", req, err)
	}
	return s
}

// status is a job document: motifd's or motifctl's.
type status interface {
	serve.JobStatus | cluster.JobView
}

func stateOf[S status](s S) (serve.State, string) {
	switch v := any(s).(type) {
	case serve.JobStatus:
		return v.State, v.Error
	case cluster.JobView:
		return v.State, v.Error
	}
	panic("unreachable")
}

// waitDone polls a job until it is terminal and requires it done.
func waitDone[S status](t *testing.T, c *serve.Client[S], id string) S {
	t.Helper()
	var s S
	eventually(t, nil, 30*time.Second, "job "+id+" terminal", func() bool {
		var err error
		if s, err = c.Status(context.Background(), id); err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		state, _ := stateOf(s)
		return state != serve.StateQueued && state != serve.StateRunning
	})
	if state, msg := stateOf(s); state != serve.StateDone {
		t.Fatalf("job %s ended %s: %s", id, state, msg)
	}
	return s
}

// waitLive waits until the coordinator sees n live workers.
func waitLive(t *testing.T, coord *daemon, n int) {
	t.Helper()
	c := motifctl(coord)
	eventually(t, coord, 10*time.Second, fmt.Sprintf("%d live workers", n), func() bool {
		return metrics[cluster.MetricsSnapshot](t, c).LiveWorkers == n
	})
}
