package cluster

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/memo"
)

// memoIndexCap bounds the digest→workers index. At ~100 bytes per
// entry this is a few MB at the cap; LRU eviction keeps the index biased
// toward recently filled (therefore still resident) entries, matching the
// workers' own LRU caches.
const memoIndexCap = 8192

// memoIndex is the coordinator's digest→workers map for the peer memo
// tier: which live workers recently filled which transferable cache
// entries. It is advisory — a stale row costs one failed peer fetch and
// the worker computes instead — so it is fed by bounded heartbeat
// summaries and bounded itself by LRU eviction, never consulted for
// correctness.
type memoIndex struct {
	mu      sync.Mutex
	entries map[memo.Key]*list.Element
	lru     *list.List // front = most recently filled/looked-up

	adds     atomic.Int64 // digest observations ingested from heartbeats
	lookups  atomic.Int64
	hits     atomic.Int64 // lookups that named at least one worker
	evicted  atomic.Int64
	scrubbed atomic.Int64 // entries dropped when their last holder died
}

// memoEntry is one indexed digest and the set of workers that reported
// filling it.
type memoEntry struct {
	key     memo.Key
	holders map[string]struct{}
}

func newMemoIndex() *memoIndex {
	return &memoIndex{
		entries: make(map[memo.Key]*list.Element),
		lru:     list.New(),
	}
}

// add records that worker id filled the digest, evicting the
// least-recently-touched entry when the index is full.
func (x *memoIndex) add(k memo.Key, id string) {
	x.adds.Add(1)
	x.mu.Lock()
	defer x.mu.Unlock()
	if el, ok := x.entries[k]; ok {
		el.Value.(*memoEntry).holders[id] = struct{}{}
		x.lru.MoveToFront(el)
		return
	}
	e := &memoEntry{key: k, holders: map[string]struct{}{id: {}}}
	x.entries[k] = x.lru.PushFront(e)
	for len(x.entries) > memoIndexCap {
		back := x.lru.Back()
		if back == nil {
			break
		}
		old := back.Value.(*memoEntry)
		x.lru.Remove(back)
		delete(x.entries, old.key)
		x.evicted.Add(1)
	}
}

// lookup returns the IDs of workers that reported holding the digest,
// excluding the requester, refreshing the entry's recency.
func (x *memoIndex) lookup(k memo.Key, exclude string) []string {
	x.lookups.Add(1)
	x.mu.Lock()
	el, ok := x.entries[k]
	var ids []string
	if ok {
		x.lru.MoveToFront(el)
		for id := range el.Value.(*memoEntry).holders {
			if id != exclude {
				ids = append(ids, id)
			}
		}
	}
	x.mu.Unlock()
	if len(ids) > 0 {
		x.hits.Add(1)
	}
	return ids
}

// dropWorker removes a dead worker from every entry, scrubbing entries
// with no remaining holder. Called from the liveness sweep so lookups
// never hand out workers the registry has already written off.
func (x *memoIndex) dropWorker(id string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	var next *list.Element
	for el := x.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*memoEntry)
		if _, ok := e.holders[id]; !ok {
			continue
		}
		delete(e.holders, id)
		if len(e.holders) == 0 {
			x.lru.Remove(el)
			delete(x.entries, e.key)
			x.scrubbed.Add(1)
		}
	}
}

// MemoIndexStats is the memo-index block of the coordinator's /metrics.
type MemoIndexStats struct {
	Entries  int   `json:"entries"`
	Capacity int   `json:"capacity"`
	Adds     int64 `json:"adds"`
	Lookups  int64 `json:"lookups"`
	Hits     int64 `json:"hits"`
	Evicted  int64 `json:"evicted"`
	Scrubbed int64 `json:"scrubbed"`
}

func (x *memoIndex) stats() MemoIndexStats {
	x.mu.Lock()
	n := len(x.entries)
	x.mu.Unlock()
	return MemoIndexStats{
		Entries:  n,
		Capacity: memoIndexCap,
		Adds:     x.adds.Load(),
		Lookups:  x.lookups.Load(),
		Hits:     x.hits.Load(),
		Evicted:  x.evicted.Load(),
		Scrubbed: x.scrubbed.Load(),
	}
}
