package serve

import (
	"testing"

	"repro/internal/memo"
)

// ledgerJob is a stand-in job: the ledger only needs its liveness.
type ledgerJob struct {
	name string
	live bool
}

func TestLedger(t *testing.T) {
	k1 := memo.Sum("test", []byte("one"))
	k2 := memo.Sum("test", []byte("two"))
	cases := []struct {
		name string
		max  int
		run  func(t *testing.T, l *Ledger[*ledgerJob])
	}{
		{"dedup by client id", 8, func(t *testing.T, l *Ledger[*ledgerJob]) {
			a := &ledgerJob{name: "a", live: true}
			l.Admit(a, "cli", memo.Key{}, false)
			if got, ok := l.Dedup("cli"); !ok || got != a {
				t.Fatalf("Dedup(cli) = %v, %v; want a", got, ok)
			}
			for _, cid := range []string{"", "other"} {
				if _, ok := l.Dedup(cid); ok {
					t.Fatalf("Dedup(%q) found a job", cid)
				}
			}
		}},
		{"collapse only onto a live job", 8, func(t *testing.T, l *Ledger[*ledgerJob]) {
			a := &ledgerJob{name: "a", live: true}
			l.Admit(a, "", k1, true)
			if got, ok := l.Collapse(k1, "late"); !ok || got != a {
				t.Fatalf("Collapse onto live job = %v, %v", got, ok)
			}
			if got, _ := l.Dedup("late"); got != a {
				t.Fatal("collapse did not bind the client id to the live job")
			}
			if _, ok := l.Collapse(k2, ""); ok {
				t.Fatal("collapse onto an unknown key")
			}
			a.live = false
			if _, ok := l.Collapse(k1, ""); ok {
				t.Fatal("collapse onto a finished job")
			}
		}},
		{"stale content entry dropped", 8, func(t *testing.T, l *Ledger[*ledgerJob]) {
			a := &ledgerJob{name: "a"} // finished before its binding was released
			id := l.Admit(a, "", k1, true)
			if _, ok := l.Collapse(k1, ""); ok {
				t.Fatal("collapse onto a finished job")
			}
			if _, ok := l.byContent[k1]; ok {
				t.Fatal("stale content entry kept")
			}
			b := &ledgerJob{name: "b", live: true}
			l.Admit(b, "", k2, true)
			l.Remove(l.byContent[k2])
			if _, ok := l.Collapse(k2, ""); ok {
				t.Fatal("collapse onto a removed job")
			}
			if got, ok := l.Get(id); !ok || got != a {
				t.Fatal("dropping a stale entry removed its job")
			}
		}},
		{"eviction stops at first live job and unbinds", 2, func(t *testing.T, l *Ledger[*ledgerJob]) {
			a := &ledgerJob{name: "a"}
			b := &ledgerJob{name: "b", live: true}
			ida := l.Admit(a, "ca", k1, true)
			idb := l.Admit(b, "cb", memo.Key{}, false)
			l.Admit(&ledgerJob{name: "c"}, "", memo.Key{}, false) // evicts a
			l.Admit(&ledgerJob{name: "d"}, "", memo.Key{}, false) // b is live: stop
			if _, ok := l.Get(ida); ok {
				t.Fatal("oldest finished job not evicted")
			}
			if _, ok := l.Get(idb); !ok {
				t.Fatal("live job evicted")
			}
			if len(l.jobs) != 3 || len(l.order) != 3 {
				t.Fatalf("history holds %d jobs (%d ids), want 3", len(l.jobs), len(l.order))
			}
			if _, ok := l.byClient["ca"]; ok {
				t.Fatal("evicted job's client id still bound")
			}
			if _, ok := l.byContent[k1]; ok {
				t.Fatal("evicted job's content key still bound")
			}
		}},
		{"release unbinds only the job's own id", 8, func(t *testing.T, l *Ledger[*ledgerJob]) {
			a := &ledgerJob{name: "a", live: true}
			ida := l.Admit(a, "x", k1, true)
			l.Release(ida) // preempted: a resubmission runs fresh
			if _, ok := l.Dedup("x"); ok {
				t.Fatal("released client id still bound")
			}
			b := &ledgerJob{name: "b", live: true}
			l.Admit(b, "x", k1, true)
			l.Release(ida)
			l.ReleaseContent(ida)
			if got, _ := l.Dedup("x"); got != b {
				t.Fatal("releasing a unbound b's client id")
			}
			if got, _ := l.Collapse(k1, ""); got != b {
				t.Fatal("releasing a unbound b's content key")
			}
			idc := l.Admit(&ledgerJob{name: "c", live: true}, "z", k2, true)
			l.ReleaseContent(idc) // terminal: the client id still answers
			if _, ok := l.Dedup("z"); !ok {
				t.Fatal("terminal release dropped the client id")
			}
			if _, ok := l.byContent[k2]; ok {
				t.Fatal("terminal release kept the content key")
			}
		}},
		{"ids continue past restored ids", 8, func(t *testing.T, l *Ledger[*ledgerJob]) {
			l.Restore("j000007", &ledgerJob{name: "r"}, "cli")
			l.Seen("j000009")                               // skipped by replay
			l.Restore("c000050", &ledgerJob{name: "x"}, "") // another daemon's prefix
			l.Restore("jbogus", &ledgerJob{name: "y"}, "")
			if got := l.Admit(&ledgerJob{}, "", memo.Key{}, false); got != "j000010" {
				t.Fatalf("next id = %s, want j000010", got)
			}
			if got, _ := l.Dedup("cli"); got == nil || got.name != "r" {
				t.Fatal("restored client binding lost")
			}
			newest := l.Newest(2)
			if len(newest) != 2 || newest[0].name != "y" || newest[1].name != "" {
				t.Fatalf("Newest(2) = %v, want jbogus then j000010", newest)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLedger("j", tc.max, func(j *ledgerJob) bool { return j.live })
			tc.run(t, &l)
		})
	}
}
