// Package cmdutil centralizes the flag setup shared by the command-line
// tools (treebench, alignbench, strand, motifd), so the common knobs keep
// one spelling and one usage string across binaries.
package cmdutil

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// Seed registers the shared -seed flag with the given default.
func Seed(def int64) *int64 {
	return flag.Int64("seed", def, "random seed (workload generation and mapping)")
}

// Procs registers the shared -procs flag; what names the resource the tool
// parallelizes over (e.g. "simulated processors", "pool workers").
func Procs(def int, what string) *int {
	return flag.Int("procs", def, "number of "+what)
}

// MemoBytes registers the shared -memo flag: the byte budget of the
// content-addressed result cache. Zero keeps memoization off.
func MemoBytes(def int64) *int64 {
	return flag.Int64("memo", def, "content-addressed result cache budget in bytes (0 disables memoization)")
}

// QoSFlags registers the shared tenant-QoS flags: -qos switches the
// admission queue to tenant-aware weighted-fair scheduling, -tenant-depth
// bounds one tenant's queued jobs, and -weights assigns scheduling weights
// ("gold=4,free=1"; absent tenants weigh 1).
func QoSFlags() (fair *bool, depth *int, weights *string) {
	fair = flag.Bool("qos", false, "tenant-aware weighted-fair admission (per-tenant bounds, class preemption)")
	depth = flag.Int("tenant-depth", 0, "per-tenant admission bound under -qos (0 = max(8, queue/8))")
	weights = flag.String("weights", "", "tenant scheduling weights, e.g. gold=4,free=1 (absent tenants weigh 1)")
	return
}

// TenantWeights parses a -weights value ("gold=4,free=1") into the weight
// map the qos scheduler takes. Empty input yields a nil map.
func TenantWeights(s string) (map[string]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if !ok || name == "" || err != nil || w < 1 {
			return nil, fmt.Errorf("bad weight %q (want tenant=positive-int)", part)
		}
		out[name] = w
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty weights")
	}
	return out, nil
}
