package bio

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

func scanAll(t *testing.T, src string) ([]FastaRecord, error) {
	t.Helper()
	sc := ScanFASTA(strings.NewReader(src))
	var recs []FastaRecord
	for sc.Scan() {
		recs = append(recs, sc.Record())
	}
	return recs, sc.Err()
}

func TestScanFASTAYieldsRecordsIncrementally(t *testing.T) {
	sc := ScanFASTA(strings.NewReader(">a\nAC\nGU\n; comment\n\n>b desc\nGG\n>c\n"))
	want := []FastaRecord{
		{Name: "a", Raw: "ACGU"},
		{Name: "b desc", Raw: "GG"},
		{Name: "c", Raw: ""},
	}
	for i, w := range want {
		if !sc.Scan() {
			t.Fatalf("Scan %d = false (err %v)", i, sc.Err())
		}
		if got := sc.Record(); got != w {
			t.Fatalf("record %d = %+v, want %+v", i, got, w)
		}
	}
	if sc.Scan() {
		t.Fatalf("extra record %+v", sc.Record())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	// Scan after exhaustion stays false and error-free.
	if sc.Scan() || sc.Err() != nil {
		t.Fatal("scanner not stable after exhaustion")
	}
}

func TestScanFASTADefaultNames(t *testing.T) {
	recs, err := scanAll(t, ">\nAC\n>  \nGU\n>named\nAA\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Name != "seq1" || recs[1].Name != "seq2" || recs[2].Name != "named" {
		t.Fatalf("records = %+v", recs)
	}
}

func TestScanFASTAMalformedMidStream(t *testing.T) {
	// Sequence data before any header is a structural error with its line
	// number; no record is ever yielded from such a stream.
	sc := ScanFASTA(strings.NewReader("\n; preamble\nACGU\n>a\nAC\n"))
	if sc.Scan() {
		t.Fatalf("scan yielded %+v from header-less stream", sc.Record())
	}
	err := sc.Err()
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want line-numbered header error", err)
	}
	// The error is sticky.
	if sc.Scan() || sc.Err() != err {
		t.Fatal("scanner not stable after structural error")
	}

	// Content-level garbage mid-stream is the normalization layer's job:
	// the scanner streams it through, ReadFasta rejects it by record name.
	if _, err := ReadFasta(strings.NewReader(">good\nACGU\n>bad\nAC!GU\n")); err == nil ||
		!strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("ReadFasta on mid-stream garbage = %v, want error naming the bad record", err)
	}
}

func TestScanFASTATruncatedMidRecord(t *testing.T) {
	// A stream cut off mid-record still yields what arrived: the partial
	// final record is flushed at EOF with whatever sequence data was seen.
	recs, err := scanAll(t, ">a\nACGU\n>b\nAC")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1] != (FastaRecord{Name: "b", Raw: "AC"}) {
		t.Fatalf("records = %+v", recs)
	}
}

// failAfterReader yields n bytes of its source then fails, modeling a
// connection dropped mid-stream.
type failAfterReader struct {
	r   io.Reader
	n   int
	err error
}

func (f *failAfterReader) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	n, err := f.r.Read(p)
	f.n -= n
	if err == io.EOF {
		err = f.err
	}
	return n, err
}

func TestScanFASTAReaderError(t *testing.T) {
	boom := errors.New("connection reset")
	src := ">a\nACGU\n>b\nACGU\n"
	sc := ScanFASTA(&failAfterReader{r: strings.NewReader(src), n: 8, err: boom})
	for sc.Scan() {
	}
	if err := sc.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want %v", err, boom)
	}
	// The error is sticky: further Scans stay false.
	if sc.Scan() {
		t.Fatal("Scan true after reader error")
	}
}

func TestReadFastaStillErrorsThroughWrapper(t *testing.T) {
	// readFastaRaw is now a wrapper over ScanFASTA; the reader-level error
	// must still reach ReadFasta callers.
	boom := errors.New("disk error")
	if _, err := ReadFasta(&failAfterReader{r: strings.NewReader(">a\nAC\n"), n: 4, err: boom}); !errors.Is(err, boom) {
		t.Fatalf("ReadFasta error = %v, want %v", err, boom)
	}
}

// fastaGenerator synthesizes an endless FASTA stream record by record
// without ever holding more than one line in memory, so the test below can
// push far more data through the scanner than it allows the heap to grow.
type fastaGenerator struct {
	records int
	seqLen  int
	i       int
	buf     []byte
}

func (g *fastaGenerator) Read(p []byte) (int, error) {
	for len(g.buf) == 0 {
		if g.i >= g.records {
			return 0, io.EOF
		}
		g.i++
		line := strings.Repeat("ACGU", g.seqLen/4)
		g.buf = append(g.buf, fmt.Sprintf(">rec%d\n%s\n", g.i, line)...)
	}
	n := copy(p, g.buf)
	g.buf = g.buf[n:]
	return n, nil
}

func TestScanFASTABoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory probe")
	}
	// Stream ~32 MB of FASTA through the scanner; since each record is
	// dropped after inspection, the live heap must stay O(one record), not
	// O(stream). Each probe collects first, so it reads what the scanner
	// retains rather than garbage the GC has not swept yet (HeapAlloc alone
	// measures GC pacing). The bound is generous (4 MB over baseline for a
	// 32 MB stream) to stay robust against allocator noise.
	const records, seqLen = 8192, 4096 // ~34 MB of sequence data
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	sc := ScanFASTA(&fastaGenerator{records: records, seqLen: seqLen})
	var count, total int
	var peak uint64
	for sc.Scan() {
		rec := sc.Record()
		count++
		total += len(rec.Raw)
		if count%1024 == 0 {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			if m.HeapAlloc > peak {
				peak = m.HeapAlloc
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if count != records || total != records*seqLen {
		t.Fatalf("streamed %d records / %d bytes, want %d / %d", count, total, records, records*seqLen)
	}
	const slack = 4 << 20
	if baseline := before.HeapAlloc + slack; peak > baseline {
		t.Fatalf("heap grew to %d bytes streaming %d bytes of FASTA (baseline+slack %d): ingestion is not streaming",
			peak, total, baseline)
	}
}

func TestNormalizeSeqExported(t *testing.T) {
	s, err := NormalizeSeq("acgt")
	if err != nil || string(s) != "ACGU" {
		t.Fatalf("NormalizeSeq = %q, %v", s, err)
	}
	for _, bad := range []string{"", "AC-GU", "ACGX"} {
		if _, err := NormalizeSeq(bad); err == nil {
			t.Fatalf("NormalizeSeq(%q) should fail", bad)
		}
	}
}
