// Command perfbench is the repository's benchmark. It boots motifd
// (serve.Server) and, where a workload needs it, motifctl
// (cluster.Coordinator) plus cluster.StartAgent workers, all in this one
// process on loopback ephemeral ports, drives a generated job stream
// through the public HTTP job API, checks every result against a reference
// run of the same spec, and prints named end-to-end metrics (untraced) or
// per-layer metrics (traced) as the last line of standard output.
//
// Usage, from the repository root:
//
//	go -C perfbench run . --workload direct-wal --seed 1 --seconds 10 --trace 0
//
// Workloads: direct-wal, cluster-memo, cluster-fanout. With --trace 1 the
// run measures an untraced phase and then a traced one, prints each
// layer's self time and the tracing overhead, and writes the traced
// phase's spans as a Chrome trace file under .bench_build/perfbench.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

const (
	// runCap is the wall-clock cap of one run; past it the run fails with
	// errRunCap instead of hanging.
	runCap = 170 * time.Second
	// setupReps is how many times a run boots its daemons; setup_s is the
	// median, and the last boot serves the load.
	setupReps = 7
)

var errRunCap = errors.New("perfbench: run exceeded its wall-clock cap")

func main() {
	name := flag.String("workload", "", "workload: direct-wal, cluster-memo or cluster-fanout")
	seed := flag.Int64("seed", 1, "seed of the generated job stream")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics")
	flag.Parse()
	w := workloads[*name]
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1, --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	cap := time.AfterFunc(runCap, func() {
		fmt.Fprintf(os.Stderr, "%v (%s)\n", errRunCap, runCap)
		os.Exit(3)
	})
	out, err := run(context.Background(), w, *seed, float64(*seconds), *traced == 1, os.Stdout)
	cap.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workDir is where runs write: .bench_build/perfbench at the repository
// root, which is the parent of the benchmark's module directory.
func workDir() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(wd, "go.mod")); err != nil {
		return "", fmt.Errorf("run from the perfbench directory (go -C perfbench run .): %w", err)
	}
	dir := filepath.Join(filepath.Dir(wd), ".bench_build", "perfbench")
	return dir, os.MkdirAll(dir, 0o755)
}

// measured is one phase with the counters read around it.
type measured struct {
	ph            *phase
	before, after *snapshot
	heapMB        float64
	pending       []float64   // coordinator pending-job samples
	cpu           []cpuSample // process CPU time, once per latency window
	repeatShare   float64     // share of submissions repeating an earlier spec of the run
	sp            *spans
}

// run performs one benchmark run and returns its result line; lines
// before it (environment stamp, self-time table) go to log.
func run(ctx context.Context, w *workload, seed int64, seconds float64, traced bool, log io.Writer) (*result, error) {
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	goroutines0 := runtime.NumGoroutine()

	// Set-up: boot several times and keep the last topology. Each boot
	// starts from the same heap state — collected and returned to the OS —
	// as a freshly started daemon would; otherwise whether a boot reuses
	// (and must zero) the previous boot's memory decides its time.
	var d *daemons
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		bctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		d, err = boot(bctx, w, dir)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
		}
	}
	closed := false
	defer func() {
		if !closed {
			_ = d.close()
		}
	}()
	printEnv(log, w, seed, seconds, dir)

	client := newClient()
	defer client.CloseIdleConnections()
	warm := runPhase(w, client, d.front, genStream(w, seed, phaseWarmup, warmupSeconds), warmupSeconds, nil)
	seen := make(map[string]bool)
	countRepeats(warm, seen)

	// A traced run splits its time between an untraced and a traced phase,
	// so it costs no more wall time than an untraced one.
	phases := []int{phaseMeasure}
	if traced {
		phases = append(phases, phaseTraced)
		seconds /= 2
	}
	refs := newReferences()
	var ms []*measured
	for _, p := range phases {
		var sp *spans
		if p == phaseTraced {
			sp = &spans{}
		}
		m, err := measure(ctx, w, d, client, genStream(w, seed, p, seconds), seconds, sp)
		if err != nil {
			return nil, err
		}
		m.repeatShare = ratio(float64(countRepeats(m.ph, seen)), float64(len(m.ph.recs)))
		ms = append(ms, m)
	}

	// Verification after the timed phases: reference runs of every distinct
	// spec, then every completed result against its reference.
	attempted, failed, wrong := 0, 0, 0
	for _, m := range ms {
		var js []*job
		for _, r := range m.ph.recs {
			if r.fail == "" {
				js = append(js, r.job)
			}
		}
		if err := refs.add(ctx, js, m.sp); err != nil {
			return nil, err
		}
		for _, r := range m.ph.recs {
			if r.fail == "" && !refs.check(r.job, r.res) {
				r.fail = failWrong
				wrong++
				if wrong <= 3 {
					got, _ := canonical(r.job.kind, r.res)
					fmt.Fprintf(os.Stderr, "perfbench: wrong result for %s\n  got  %.300s\n  want %.300s\n",
						r.job.specKey, got, refs.canon[r.job.specKey])
				}
			}
			if r.fail != "" && r.fail != failWrong && failed < 3 {
				msg := r.fail
				if r.res != nil {
					msg += ": " + r.res.Error
				}
				fmt.Fprintf(os.Stderr, "perfbench: job %s (%s) %s\n", r.id, r.job.kind, msg)
			}
			attempted++
			if r.fail != "" {
				failed++
			}
		}
	}

	var layer map[string]float64
	if traced {
		if layer, err = layerMetrics(d, ms[1], refs, dir); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d-%d.json", w.name, seed, time.Now().UnixNano()))
		if err := ms[1].sp.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "span file: %s\n", path)
		layer["trace.overhead_ms"] = latencyP(ms[1].ph, 0.5) - latencyP(ms[0].ph, 0.5)
	}

	closed = true
	if err := d.close(); err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	client.CloseIdleConnections()
	goroutinesEnd, err := settleGoroutines(goroutines0)
	if err != nil {
		return nil, err
	}

	res := &result{Correct: wrong == 0, Attempted: attempted, Failed: failed}
	if traced {
		layer["proc.goroutines_end"] = float64(goroutinesEnd)
		fmt.Fprintf(log, "self time by layer (traced phase, %d spans):\n", len(ms[1].sp.list))
		printSelfTimes(log, ms[1].sp.selfTimes())
		fmt.Fprintf(log, "tracing overhead: latency_p50_ms traced - untraced = %.3f ms\n", layer["trace.overhead_ms"])
		res.Metrics, err = emit(perLayer, layer)
	} else {
		e2e := endToEndMetrics(w, ms[0])
		e2e["setup_s"] = quantile(setups, 0.5)
		res.Metrics, err = emit(endToEnd, e2e)
	}
	return res, err
}

// measure runs one phase with counters read just before and just after it.
func measure(ctx context.Context, w *workload, d *daemons, client *http.Client, s stream, seconds float64, sp *spans) (*measured, error) {
	m := &measured{sp: sp}
	var err error
	if m.before, err = d.take(ctx, sp); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		m.sample(ctx, d, stop, sp)
	}()
	m.ph = runPhase(w, client, d.front, s, seconds, sp)
	close(stop)
	<-sampled
	if m.after, err = d.take(ctx, sp); err != nil {
		return nil, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.heapMB = float64(mem.HeapAlloc) / (1 << 20)
	return m, nil
}

// cpuSample is the process CPU time at one instant of a phase.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

// sample records the process CPU time every latencyWindow and, behind
// motifctl, the coordinator's pending-job count every 100ms, until stop
// closes.
func (m *measured) sample(ctx context.Context, d *daemons, stop <-chan struct{}, sp *spans) {
	const every = 100 * time.Millisecond
	tick := time.NewTicker(every)
	defer tick.Stop()
	m.cpu = append(m.cpu, cpuSample{time.Now(), cpuTime()})
	for n := 1; ; n++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if n%int(latencyWindow/every) == 0 {
			m.cpu = append(m.cpu, cpuSample{time.Now(), cpuTime()})
		}
		if d.coordH == nil {
			continue
		}
		var snap struct {
			Pending int `json:"pending"`
		}
		if scrape(ctx, d.coordH, &snap, sp) == nil {
			m.pending = append(m.pending, float64(snap.Pending))
		}
	}
}

// cpuPerJob is the process CPU time per completed job, in ms: the median
// over windows between CPU samples with at least minWindowJobs/2
// completions, or the whole phase when no window qualifies.
func cpuPerJob(m *measured, completed int) float64 {
	var per []float64
	for i := 1; i < len(m.cpu); i++ {
		lo, hi := m.cpu[i-1], m.cpu[i]
		n := 0
		for _, r := range m.ph.recs {
			if r.fail == "" && !r.done.Before(lo.at) && r.done.Before(hi.at) {
				n++
			}
		}
		if n >= minWindowJobs/2 {
			per = append(per, msOf(hi.cpu-lo.cpu)/float64(n))
		}
	}
	if len(per) == 0 {
		return ratio(msOf(m.after.cpu-m.before.cpu), float64(completed))
	}
	return quantile(per, 0.5)
}

// settleGoroutines waits for the goroutine count to return to its start
// value after teardown.
func settleGoroutines(start int) (int, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= start {
			return n, nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return n, fmt.Errorf("goroutine leak: %d at start, %d after teardown\n%s", start, n, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// printEnv writes the environment stamp.
func printEnv(log io.Writer, w *workload, seed int64, seconds float64, dir string) {
	fs := fsType(dir)
	stamp := map[string]any{
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        gitCommit(filepath.Join("..", ".git")),
		"date":          time.Now().UTC().Format(time.RFC3339),
		"workload":      w.name,
		"seed":          seed,
		"seconds":       seconds,
		"load":          w.load(),
		"poll_every_ms": msOf(w.pollEvery),
		"wal":           w.wal,
		"wal_fs":        fs,
		"fsync_is_free": fs == "tmpfs",
	}
	line, _ := json.Marshal(map[string]any{"env": stamp})
	fmt.Fprintln(log, string(line))
}

// gitCommit reads the checked-out commit from a .git directory without
// running git: HEAD names a commit or a ref, and a ref lives in its own
// file or in packed-refs. "unknown" outside a git checkout.
func gitCommit(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, by statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// Latency is reported per window: the phase is cut into windows of
// latencyWindow by due time, each window with at least minWindowJobs
// completed jobs gives its own quantile, and the metric is the median of
// those. A stall of the shared host then spoils one window, not the run.
const (
	latencyWindow = time.Second
	minWindowJobs = 100
)

// latencyP is the q-quantile of client-perceived latency (due → observed
// done) of the phase's completed jobs, in ms: the median over windows, or
// the whole phase when it is too short to fill one window.
func latencyP(ph *phase, q float64) float64 {
	var all []float64
	windows := make(map[int64][]float64)
	for _, r := range ph.recs {
		if r.fail == "" {
			ms := msOf(r.done.Sub(r.due))
			all = append(all, ms)
			win := int64(r.due.Sub(ph.start) / latencyWindow)
			windows[win] = append(windows[win], ms)
		}
	}
	var per []float64
	for _, xs := range windows {
		if len(xs) >= minWindowJobs {
			per = append(per, quantile(xs, q))
		}
	}
	if len(per) == 0 {
		return quantile(all, q)
	}
	return quantile(per, 0.5)
}

// endToEndMetrics computes the user-visible metrics of an untraced phase.
func endToEndMetrics(w *workload, m *measured) map[string]float64 {
	ph := m.ph
	wall := ph.end.Sub(ph.start).Seconds()
	ok, good := 0, 0
	for _, r := range ph.recs {
		if r.fail == "" {
			ok++
			if r.done.Sub(r.due) <= w.latencyLimit {
				good++
			}
		}
	}
	return map[string]float64{
		"latency_p50_ms": latencyP(ph, 0.5),
		"latency_p95_ms": latencyP(ph, 0.95),
		"throughput_jps": float64(ok) / wall,
		"goodput_jps":    float64(good) / wall,
		"success_rate":   ratio(float64(ok), float64(len(ph.recs))),
		"cpu_ms_per_job": cpuPerJob(m, ok),
		"live_heap_mb":   m.heapMB,
	}
}

// countRepeats counts the phase's submissions whose spec is already in
// seen, adding every spec of the phase to seen.
func countRepeats(ph *phase, seen map[string]bool) int {
	n := 0
	for _, r := range ph.recs {
		if seen[r.job.specKey] {
			n++
		}
		seen[r.job.specKey] = true
	}
	return n
}
