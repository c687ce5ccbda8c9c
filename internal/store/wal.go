package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Log geometry and limits.
const (
	// frameHeader is the per-record framing overhead: a uint32 payload
	// length followed by a uint32 CRC-32 (IEEE) of the payload.
	frameHeader = 8
	// maxRecordBytes bounds a single record; anything larger in a segment
	// is treated as a torn/corrupt frame. Job bodies are already bounded
	// by the job routes' 8 MiB body bound, far below this.
	maxRecordBytes = 1 << 26
	// defaultSegmentBytes rotates segments at 1 MiB so compaction has
	// whole files to drop.
	defaultSegmentBytes = 1 << 20
)

// fsyncBoundsMicros buckets fsync latencies from 50µs to 100ms.
var fsyncBoundsMicros = []int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000,
	10_000, 25_000, 50_000, 100_000,
}

var errWALClosed = errors.New("store: wal is closed")

// wal is a segmented, CRC-checked, append-only log. Records are framed as
// [len uint32][crc32 uint32][payload] and written to numbered segment
// files (wal-%08d.seg). Every open starts a fresh segment, so a torn tail
// — a frame cut short by a crash — can only ever sit at the end of the
// highest pre-existing segment, where replay truncates it; a bad frame
// anywhere else is real corruption and fails the open.
//
// Durability is group-committed: append writes the frame under mu without
// syncing, and syncTo coalesces concurrent callers onto one fsync of the
// active segment. Rotation fsyncs the outgoing file before closing it, so
// syncing only the active file still covers every earlier record.
type wal struct {
	dir      string
	segBytes int64
	noSync   bool

	mu   sync.Mutex
	f    *os.File
	seq  int64   // sequence number of the active segment
	size int64   // bytes written to the active segment
	n    int64   // records appended by this process (monotone)
	segs []int64 // on-disk segment sequence numbers, ascending

	syncMu sync.Mutex
	synced atomic.Int64 // highest n known durable

	closed bool

	// Counters. records is the log depth: frames currently on disk.
	records   atomic.Int64
	appends   atomic.Int64
	appendLen atomic.Int64
	fsyncs    atomic.Int64
	replayed  int64
	tornTails int64
	compacts  atomic.Int64

	histMu  sync.Mutex
	fsyncUS *metrics.Histogram
}

func segName(seq int64) string { return fmt.Sprintf("wal-%08d.seg", seq) }

func (w *wal) segPath(seq int64) string { return filepath.Join(w.dir, segName(seq)) }

// openWAL opens (creating if needed) the log in dir, replays every intact
// record through apply in append order, and positions the log to append
// into a brand-new segment.
func openWAL(dir string, segBytes int64, noSync bool, apply func(payload []byte) error) (*wal, error) {
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &wal{
		dir:      dir,
		segBytes: segBytes,
		noSync:   noSync,
		fsyncUS:  metrics.NewHistogram(fsyncBoundsMicros...),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == ".tmp" {
			// Leftover from a compaction interrupted before its rename;
			// the pre-compaction segments are still intact.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		var seq int64
		if _, err := fmt.Sscanf(name, "wal-%d.seg", &seq); err == nil {
			w.segs = append(w.segs, seq)
		}
	}
	sort.Slice(w.segs, func(i, j int) bool { return w.segs[i] < w.segs[j] })
	for i, seq := range w.segs {
		last := i == len(w.segs)-1
		applied, err := w.replaySegment(seq, last, apply)
		w.replayed += applied
		if err != nil {
			return nil, err
		}
		w.seq = seq
	}
	w.records.Store(w.replayed)
	return w, nil
}

// replaySegment streams one segment's intact records through apply. A bad
// frame in the last segment is a torn tail: the file is truncated to the
// last intact record and replay stops there. A bad frame in any earlier
// segment is corruption and fails the open.
func (w *wal) replaySegment(seq int64, last bool, apply func([]byte) error) (int64, error) {
	path := w.segPath(seq)
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var applied, off int64
	hdr := make([]byte, frameHeader)
	torn := func() (int64, error) {
		if !last {
			return applied, fmt.Errorf("store: corrupt record in %s at offset %d", segName(seq), off)
		}
		w.tornTails++
		if err := os.Truncate(path, off); err != nil {
			return applied, fmt.Errorf("store: truncating torn tail of %s: %w", segName(seq), err)
		}
		return applied, nil
	}
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			if err == io.EOF {
				return applied, nil
			}
			return torn()
		}
		ln := binary.BigEndian.Uint32(hdr[:4])
		crc := binary.BigEndian.Uint32(hdr[4:])
		if ln > maxRecordBytes {
			return torn()
		}
		payload := make([]byte, ln)
		if _, err := io.ReadFull(f, payload); err != nil {
			return torn()
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return torn()
		}
		if err := apply(payload); err != nil {
			return applied, fmt.Errorf("store: replaying %s: %w", segName(seq), err)
		}
		applied++
		off += frameHeader + int64(ln)
	}
}

// rotateLocked fsyncs and closes the active segment (if any) and starts
// the next one. Caller holds mu.
func (w *wal) rotateLocked() error {
	if w.f != nil {
		if !w.noSync {
			if err := w.f.Sync(); err != nil {
				return fmt.Errorf("store: %w", err)
			}
		}
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	w.seq++
	f, err := os.OpenFile(w.segPath(w.seq), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w.f = f
	w.size = 0
	w.segs = append(w.segs, w.seq)
	return nil
}

// append frames and writes one payload to the active segment without
// syncing, returning the record's sequence number for syncTo. Callers that
// need an ordering guarantee between the write and their own state must
// hold their own lock across the call (JobStore does).
func (w *wal) append(payload []byte) (int64, error) {
	frame := make([]byte, frameHeader+len(payload))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errWALClosed
	}
	if w.f == nil || w.size >= w.segBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	w.size += int64(len(frame))
	w.n++
	w.appends.Add(1)
	w.appendLen.Add(int64(len(frame)))
	w.records.Add(1)
	return w.n, nil
}

// syncTo makes every record up to sequence number n durable. Concurrent
// callers share fsyncs: whoever holds syncMu syncs the active file and
// publishes the high-water mark; everyone who arrives meanwhile returns on
// the fast path.
func (w *wal) syncTo(n int64) error {
	if w.noSync {
		return nil
	}
	if w.synced.Load() >= n {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced.Load() >= n {
		return nil
	}
	w.mu.Lock()
	f, upto := w.f, w.n
	w.mu.Unlock()
	if f == nil {
		return nil
	}
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		if errors.Is(err, os.ErrClosed) {
			// The segment was rotated out from under us; rotation fsyncs
			// before closing, so everything up to upto is durable.
			w.synced.Store(upto)
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	w.fsyncs.Add(1)
	w.histMu.Lock()
	w.fsyncUS.Observe(time.Since(t0).Microseconds())
	w.histMu.Unlock()
	w.synced.Store(upto)
	return nil
}

// compactCut marks the boundary of a compaction: every record in olds is
// covered by the caller's snapshot; snapSeq is reserved for the snapshot
// segment, ordered after olds and before the new active segment.
type compactCut struct {
	snapSeq int64
	olds    []int64
	nAtCut  int64
}

// beginCompact rotates appends onto a fresh segment two sequence numbers
// ahead, reserving the gap for the snapshot. The caller must hold the lock
// that orders its state snapshot against appends, so the returned cut
// exactly covers the snapshot's contents.
func (w *wal) beginCompact() (compactCut, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return compactCut{}, errWALClosed
	}
	cut := compactCut{
		snapSeq: w.seq + 1,
		olds:    append([]int64(nil), w.segs...),
		nAtCut:  w.records.Load(),
	}
	w.seq++ // reserve snapSeq; rotateLocked advances to snapSeq+1
	if err := w.rotateLocked(); err != nil {
		return compactCut{}, err
	}
	return cut, nil
}

// finishCompact writes the live records as the snapshot segment (ordered
// before the new active segment, so replay applies snapshot then fresh
// appends), atomically publishes it via rename, and deletes the old
// segments. Runs concurrently with appends.
func (w *wal) finishCompact(cut compactCut, live [][]byte) error {
	tmp := filepath.Join(w.dir, segName(cut.snapSeq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	hdr := make([]byte, frameHeader)
	for _, payload := range live {
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		if _, err := f.Write(hdr); err == nil {
			_, err = f.Write(payload)
		}
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("store: %w", err)
		}
	}
	if !w.noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, w.segPath(cut.snapSeq)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if !w.noSync {
		if d, err := os.Open(w.dir); err == nil {
			_ = d.Sync()
			d.Close()
		}
	}

	old := make(map[int64]bool, len(cut.olds))
	for _, s := range cut.olds {
		old[s] = true
	}
	w.mu.Lock()
	segs := []int64{cut.snapSeq}
	for _, s := range w.segs {
		if !old[s] {
			segs = append(segs, s)
		}
	}
	w.segs = segs
	w.records.Add(int64(len(live)) - cut.nAtCut)
	w.mu.Unlock()

	for _, s := range cut.olds {
		_ = os.Remove(w.segPath(s))
	}
	w.compacts.Add(1)
	return nil
}

func (w *wal) segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segs)
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	if !w.noSync {
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w.f = nil
	return nil
}

// walStats is the point-in-time observable state of the log.
type walStats struct {
	segments    int
	sizeBytes   int64
	records     int64
	appends     int64
	fsyncs      int64
	replayed    int64
	tornTails   int64
	compactions int64
	fsyncP50MS  float64
	fsyncP99MS  float64
	fsyncMaxMS  float64
}

func (w *wal) stats() walStats {
	w.mu.Lock()
	segs := append([]int64(nil), w.segs...)
	w.mu.Unlock()
	var size int64
	for _, s := range segs {
		if fi, err := os.Stat(w.segPath(s)); err == nil {
			size += fi.Size()
		}
	}
	st := walStats{
		segments:    len(segs),
		sizeBytes:   size,
		records:     w.records.Load(),
		appends:     w.appends.Load(),
		fsyncs:      w.fsyncs.Load(),
		replayed:    w.replayed,
		tornTails:   w.tornTails,
		compactions: w.compacts.Load(),
	}
	w.histMu.Lock()
	st.fsyncP50MS = w.fsyncUS.Quantile(0.50) / 1000
	st.fsyncP99MS = w.fsyncUS.Quantile(0.99) / 1000
	st.fsyncMaxMS = float64(w.fsyncUS.Max()) / 1000
	w.histMu.Unlock()
	return st
}
