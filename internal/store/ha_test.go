package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestLeaseAcquireRenewSteal(t *testing.T) {
	dir := t.TempDir()
	ttl := 120 * time.Millisecond

	a, err := AcquireLease(dir, "active", ttl)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if h, age, err := ReadLease(dir); err != nil || h != "active" || age > ttl {
		t.Fatalf("ReadLease = %q, %s, %v; want active, fresh", h, age, err)
	}

	// A fresh lease refuses a different holder…
	if _, err := AcquireLease(dir, "standby", ttl); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("standby acquire against fresh lease: %v; want ErrLeaseHeld", err)
	}
	// …but the holder itself re-acquires.
	self, err := AcquireLease(dir, "active", ttl)
	if err != nil {
		t.Fatalf("re-acquire own lease: %v", err)
	}
	self.Release()

	// Renewal keeps it fresh well past the TTL.
	time.Sleep(2 * ttl)
	if _, age, err := ReadLease(dir); err != nil || age >= ttl {
		t.Fatalf("after renewal window: age %s, %v; want < %s", age, err, ttl)
	}

	// Kill the holder without Release (crash): the lease goes stale and a
	// standby steals it.
	a.mu.Lock()
	close(a.done)
	a.mu.Unlock()
	a.wg.Wait()
	time.Sleep(ttl + ttl/2)
	b, err := AcquireLease(dir, "standby", ttl)
	if err != nil {
		t.Fatalf("steal stale lease: %v", err)
	}
	if h, _, _ := ReadLease(dir); h != "standby" {
		t.Fatalf("holder after steal = %q; want standby", h)
	}

	// Release removes the file so the next acquire needn't wait out the TTL.
	b.Release()
	if _, err := os.Stat(filepath.Join(dir, LeaseFile)); !os.IsNotExist(err) {
		t.Fatalf("lease file after Release: %v; want gone", err)
	}
	c, err := AcquireLease(dir, "active", ttl)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	c.Release()
	c.Release() // double release is safe
}

func TestTailObservesWithoutTruncating(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Accepted("j1", "", []byte(`{"op":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Accepted("j2", "", []byte(`{"op":2}`)); err != nil {
		t.Fatal(err)
	}
	s.Finish("j1", []byte(`"r1"`), "")()

	// Tail while the writer still owns the log.
	info, err := Tail(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 3 || info.Jobs != 2 || info.Incomplete != 1 {
		t.Fatalf("Tail = %+v; want 3 records, 2 jobs, 1 incomplete", info)
	}

	// Simulate a torn in-flight append at the active tail: Tail must stop
	// there without modifying the file.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(last)

	info2, err := Tail(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Records != info.Records {
		t.Fatalf("Tail past torn tail = %+v; want same %d records", info2, info.Records)
	}
	after, _ := os.Stat(last)
	if before.Size() != after.Size() {
		t.Fatalf("Tail truncated the segment: %d -> %d bytes", before.Size(), after.Size())
	}

	// A real Open afterwards still recovers cleanly (truncating the junk),
	// proving Tail left the log in the state Open expects.
	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if inc := s2.Incomplete(); len(inc) != 1 || inc[0].ID != "j2" {
		t.Fatalf("Incomplete after reopen = %+v; want [j2]", inc)
	}
}
