package serve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/memo"
)

// Ledger is the admission book of a serving front end: the job history in
// insertion order, the client-id dedup table, and the content-digest index
// that collapses identical submissions onto a job still in flight. motifd's
// Server and motifctl's Coordinator each keep one, so dedup, collapse,
// id allocation and history eviction behave the same on both.
//
// A Ledger does no locking of its own: the owner serializes every call
// under its mutex, so one admission decision (dedup, collapse, a cache
// answer, then Admit) stays one critical section.
type Ledger[J any] struct {
	prefix string // job-id prefix: "j" for motifd, "c" for motifctl
	max    int    // finished-job history bound
	// live reports whether a job is still queued or running; eviction
	// stops at the first live job and collapse attaches only to one.
	live func(J) bool

	jobs      map[string]*ledgerEntry[J]
	order     []string // insertion order, for history eviction
	byClient  map[string]string
	byContent map[memo.Key]string
	nextID    int64
}

// ledgerEntry is one job with the identity bindings it claimed, so release
// and eviction unbind exactly what the job itself bound.
type ledgerEntry[J any] struct {
	job    J
	client string
	key    memo.Key
	hasKey bool
}

// NewLedger returns an empty ledger allocating ids prefix+"%06d" and
// keeping at most maxJobs finished jobs.
func NewLedger[J any](prefix string, maxJobs int, live func(J) bool) Ledger[J] {
	return Ledger[J]{
		prefix:    prefix,
		max:       maxJobs,
		live:      live,
		jobs:      make(map[string]*ledgerEntry[J]),
		byClient:  make(map[string]string),
		byContent: make(map[memo.Key]string),
	}
}

// Get returns the job with the given id, if still in the history window.
func (l *Ledger[J]) Get(id string) (J, bool) {
	if e, ok := l.jobs[id]; ok {
		return e.job, true
	}
	var zero J
	return zero, false
}

// Dedup returns the job an earlier submission with the same client id
// created (idempotent resubmission); false for an empty or unknown id.
func (l *Ledger[J]) Dedup(client string) (J, bool) {
	if client == "" {
		var zero J
		return zero, false
	}
	return l.Get(l.byClient[client])
}

// Collapse returns the live job already computing the content key, and
// binds client (if any) to it, so identical work runs once. An entry whose
// job finished or left the history is stale; it is dropped and false is
// returned.
func (l *Ledger[J]) Collapse(key memo.Key, client string) (J, bool) {
	var zero J
	id, ok := l.byContent[key]
	if !ok {
		return zero, false
	}
	if e, ok := l.jobs[id]; ok && l.live(e.job) {
		if client != "" {
			l.byClient[client] = id
		}
		return e.job, true
	}
	delete(l.byContent, key)
	return zero, false
}

// Admit allocates the next id, publishes j under it, binds client and (when
// hasKey) the content key to it, evicts the oldest finished jobs beyond the
// history bound, and returns the id.
func (l *Ledger[J]) Admit(j J, client string, key memo.Key, hasKey bool) string {
	l.nextID++
	id := fmt.Sprintf("%s%06d", l.prefix, l.nextID)
	l.put(id, &ledgerEntry[J]{job: j, client: client, key: key, hasKey: hasKey})
	if hasKey {
		l.byContent[key] = id
	}
	for len(l.order) > l.max {
		// Stop at the first live job: live jobs are bounded by the
		// admission queues, so the history overshoots by at most that.
		old, ok := l.jobs[l.order[0]]
		if ok {
			if l.live(old.job) {
				break
			}
			l.Release(l.order[0])
			delete(l.jobs, l.order[0])
		}
		l.order = l.order[1:]
	}
	return id
}

// Restore republishes a job replayed from the WAL under its journaled id
// and client binding. Later Admits allocate past every restored id.
func (l *Ledger[J]) Restore(id string, j J, client string) {
	l.Seen(id)
	l.put(id, &ledgerEntry[J]{job: j, client: client})
}

// Seen advances id allocation past a journaled id the replay skips (its
// request no longer decodes), so the id is never handed out twice.
func (l *Ledger[J]) Seen(id string) {
	if seq, ok := strings.CutPrefix(id, l.prefix); ok {
		if n, err := strconv.ParseInt(seq, 10, 64); err == nil && n > l.nextID {
			l.nextID = n
		}
	}
}

func (l *Ledger[J]) put(id string, e *ledgerEntry[J]) {
	l.jobs[id] = e
	l.order = append(l.order, id)
	if e.client != "" {
		l.byClient[e.client] = id
	}
}

// Release drops both of the job's bindings (those that still name it): a
// preempted or refused job never ran, so a resubmission runs fresh.
func (l *Ledger[J]) Release(id string) {
	if e, ok := l.jobs[id]; ok && e.client != "" && l.byClient[e.client] == id {
		delete(l.byClient, e.client)
	}
	l.ReleaseContent(id)
}

// ReleaseContent drops the job's content binding on a terminal
// transition, so the digest index only names live jobs. The client binding
// stays: a finished job still answers its client id's resubmissions.
func (l *Ledger[J]) ReleaseContent(id string) {
	if e, ok := l.jobs[id]; ok && e.hasKey && l.byContent[e.key] == id {
		delete(l.byContent, e.key)
	}
}

// Remove releases the job's bindings and forgets it: the rollback of an
// Admit whose enqueue failed.
func (l *Ledger[J]) Remove(id string) {
	l.Release(id)
	delete(l.jobs, id)
	for i := len(l.order) - 1; i >= 0; i-- {
		if l.order[i] == id {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
}

// Newest returns up to n jobs, newest id first.
func (l *Ledger[J]) Newest(n int) []J {
	ids := append([]string(nil), l.order...)
	sort.Sort(sort.Reverse(sort.StringSlice(ids)))
	if len(ids) > n {
		ids = ids[:n]
	}
	out := make([]J, 0, len(ids))
	for _, id := range ids {
		if e, ok := l.jobs[id]; ok {
			out = append(out, e.job)
		}
	}
	return out
}
