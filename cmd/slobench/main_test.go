package main

import (
	"testing"
	"time"
)

// TestSmokeTenantIsolation is `slobench -smoke -tenants 300 -dur 1s` with
// every other flag at its default: a qos-enabled server at 2× capacity must
// keep the gold tenant's p99 within its SLO and the well-behaved goodput
// held while the hostile flooder is shed.
//
// Under `go test ./...` the smoke shares the host's CPUs with other test
// binaries and the linker, and its gold p99 is the slowest of some 30 gold
// jobs, so one scheduling stall of the host can decide it. The SLO is not
// widened for that, since a qos-off run can come within 2× of it; instead
// the smoke gets up to three attempts, each freshly calibrated. Broken
// isolation fails every attempt, and the last attempt's phase, rerun with
// qos off, must break the same SLO.
func TestSmokeTenantIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("saturates a server for seconds")
	}
	const procs, seed, attempts = 2, 7, 3
	cfg := benchConfig{
		Procs: procs, QueueCap: 512, Tenants: 300, ZipfS: 1.2,
		DurMS: 1000, WBFrac: 0.5, GoldWeight: 64, Seed: seed,
	}
	var cal calibration
	passed := false
	for i := 1; i <= attempts && !passed; i++ {
		cal = calibrate(procs, 2*time.Millisecond, seed)
		if passed = runSmoke(cfg, cal, sloFor(cal)) == 0; !passed {
			t.Logf("attempt %d of %d failed; see the report above", i, attempts)
		}
	}
	if !passed {
		t.Fatalf("smoke failed %d attempts in a row", attempts)
	}
	slo := sloFor(cal)
	ph := runPhase(cfg, cal, slo, false, 2, time.Second)
	t.Logf("qos off: gold p99 %.0fms (%d done), slo %.0fms", ph.Gold.P99Millis, ph.Gold.Done, slo.High)
	if ph.Gold.Done > 0 && ph.Gold.P99Millis <= slo.High {
		t.Fatalf("qos off: gold p99 %.0fms within the %.0fms SLO; the gate cannot tell qos from none", ph.Gold.P99Millis, slo.High)
	}
}
