package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one benchmark-side call into a layer: a submit, a poll, a job's
// submit → done wait, a reference probe, or a metrics scrape.
type span struct {
	id, parent int // parent 0 = root
	name       string
	layer      string
	job        string // every span of one job carries the job's id
	lane       int    // Chrome timeline lane
	start, end time.Time
}

// spans keeps a traced phase's spans in memory until the run ends. A nil
// *spans records nothing, so untraced phases pay one nil check per call.
type spans struct {
	mu     sync.Mutex
	nextID int
	list   []span
}

// reserve allocates a span id before the span's end is known, so children
// can name their parent.
func (s *spans) reserve() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return s.nextID
}

func (s *spans) record(id, parent int, name, layer, job string, lane int, start, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.list = append(s.list, span{id: id, parent: parent, name: name, layer: layer, job: job, lane: lane, start: start, end: end})
	s.mu.Unlock()
}

// timed runs f inside a root span and returns its duration.
func (s *spans) timed(name, layer, job string, lane int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	s.record(s.reserve(), 0, name, layer, job, lane, start, end)
	return end.Sub(start)
}

// layerTime is one row of the self-time table.
type layerTime struct {
	layer       string
	spans       int
	total, self time.Duration
}

// selfTimes sums each layer's span time and self time: a span's duration
// minus the part its children cover. A job's children (submit and polls)
// are sequential, so their durations never overlap.
func (s *spans) selfTimes() []layerTime {
	child := make(map[int]time.Duration)
	for _, sp := range s.list {
		if sp.parent != 0 {
			child[sp.parent] += sp.end.Sub(sp.start)
		}
	}
	rows := make(map[string]*layerTime)
	for _, sp := range s.list {
		row := rows[sp.layer]
		if row == nil {
			row = &layerTime{layer: sp.layer}
			rows[sp.layer] = row
		}
		d := sp.end.Sub(sp.start)
		row.spans++
		row.total += d
		row.self += d - child[sp.id]
	}
	out := make([]layerTime, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// printSelfTimes writes the self-time table.
func printSelfTimes(w io.Writer, rows []layerTime) {
	fmt.Fprintf(w, "%-10s %8s %12s %12s\n", "layer", "spans", "total ms", "self ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %12.1f %12.1f\n", r.layer, r.spans,
			float64(r.total.Microseconds())/1000, float64(r.self.Microseconds())/1000)
	}
}

// writeChrome exports the spans through internal/trace's Chrome exporter:
// one complete slice per span, one lane per job (children nest inside
// their job's slice), probes and scrapes on lanes of their own.
func (s *spans) writeChrome(path string) error {
	var t0 time.Time
	for _, sp := range s.list {
		if t0.IsZero() || sp.start.Before(t0) {
			t0 = sp.start
		}
	}
	c := trace.NewChrome()
	for _, sp := range s.list {
		label := fmt.Sprintf("%s [%s %s #%d", sp.name, sp.layer, sp.job, sp.id)
		if sp.parent != 0 {
			label += fmt.Sprintf(" parent #%d", sp.parent)
		}
		c.Event(trace.Event{
			Kind:  trace.KindExecFinish,
			Cycle: sp.start.Sub(t0).Microseconds(),
			Arg:   sp.end.Sub(sp.start).Microseconds(),
			Proc:  sp.lane,
			From:  -1,
			Label: label + "]",
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create span file: %w", err)
	}
	if _, err := c.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("write span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close span file: %w", err)
	}
	return nil
}
