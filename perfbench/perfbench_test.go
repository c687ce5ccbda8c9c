package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestSameSeedSameStream checks that a seed fixes the job stream — specs
// and arrival times — and that another seed changes it.
func TestSameSeedSameStream(t *testing.T) {
	for _, name := range workloadNames {
		w := workloads[name]
		a := genStream(w, 42, phaseMeasure, 2)
		b := genStream(w, 42, phaseMeasure, 2)
		c := genStream(w, 43, phaseMeasure, 2)
		if !reflect.DeepEqual(specKeys(a), specKeys(b)) || !reflect.DeepEqual(a.due, b.due) {
			t.Errorf("%s: same seed gave different streams", name)
		}
		if reflect.DeepEqual(specKeys(a), specKeys(c)) {
			t.Errorf("%s: seeds 42 and 43 gave the same specs", name)
		}
		if w.k == 0 && len(a.due) != int(w.rate*2) {
			t.Errorf("%s: %d arrivals in 2s at %g jobs/s", name, len(a.due), w.rate)
		}
	}
}

// TestUniqueContent checks that the unique-content workloads never repeat
// a spec across phases, and that the Zipf workload mostly does.
func TestUniqueContent(t *testing.T) {
	for _, name := range workloadNames {
		w := workloads[name]
		seen := make(map[string]bool)
		n, repeats := 0, 0
		for _, p := range []int{phaseWarmup, phaseMeasure, phaseTraced} {
			for _, k := range specKeys(genStream(w, 7, p, 1)) {
				n++
				if seen[k] {
					repeats++
				}
				seen[k] = true
			}
		}
		share := float64(repeats) / float64(n)
		if w.zipfPool == 0 && repeats != 0 {
			t.Errorf("%s: %d repeated specs, want none", name, repeats)
		}
		if w.zipfPool > 0 && share < 0.5 {
			t.Errorf("%s: repeat share %.2f, want most submissions to repeat", name, share)
		}
	}
}

func specKeys(s stream) []string {
	out := make([]string, len(s.jobs))
	for i, j := range s.jobs {
		out[i] = j.specKey
	}
	return out
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that no job fails and that every named metric is reported with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons and drives load")
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				res, err := run(context.Background(), workloads[name], 5, 1, traced, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, v, d.unit)
					}
				}
				if !traced && res.Metrics["success_rate"].Value != 1 {
					t.Errorf("success_rate %v, want 1 (error rate 0)", res.Metrics["success_rate"].Value)
				}
			})
		}
	}
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json, the metric tables and
// the workload settings in step: the same names, units, directions and
// bounds, and each workload's fixed load and latency limit in its "why".
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloadNames))
	}
	for i, wj := range bf.Workloads {
		w := workloads[workloadNames[i]]
		if wj.Name != w.name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in code", i, wj.Name, w.name)
			continue
		}
		load := fmt.Sprintf("%g jobs/s", w.rate)
		if w.k > 0 {
			load = fmt.Sprintf("K=%d", w.k)
		}
		limit := fmt.Sprintf("limit %d ms", w.latencyLimit.Milliseconds())
		if !strings.Contains(wj.Why, load) || !strings.Contains(wj.Why, limit) {
			t.Errorf("%s: why %q does not state %q and %q", w.name, wj.Why, load, limit)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, d)
		}
	}
}
