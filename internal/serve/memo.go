package serve

import (
	"encoding/binary"
	"encoding/json"

	"repro/internal/memo"
)

// ContentKey returns the request's job-level content digest: a canonical
// hash of everything that determines the result, excluding identity-only
// fields (client ID, deadline, placement label). Two requests share a key
// exactly when running either produces the same result payload, so the
// serving layer can answer one from the other's cached outcome and
// collapse their concurrent executions. The cluster coordinator reuses it
// to derive placement labels (equal content → same worker → warm cache)
// and to collapse identical in-flight submissions. The request must
// already be validated (validation normalizes the specs the digest
// covers).
func ContentKey(req *JobRequest) (memo.Key, bool) {
	switch req.Type {
	case JobAlign:
		d := req.Align.Digest()
		return memo.Sum("serve.job", []byte(req.Type), d[:]), true
	case JobTree:
		t := req.Tree
		shape, err := treeShape(t.Shape)
		if err != nil {
			return memo.Key{}, false
		}
		var nums [24]byte
		binary.BigEndian.PutUint64(nums[0:], uint64(int64(t.Leaves)))
		binary.BigEndian.PutUint64(nums[8:], uint64(int64(shape)))
		binary.BigEndian.PutUint64(nums[16:], uint64(t.Seed))
		// NodeCostMicros shapes timing, not the value, so it is excluded:
		// a warm resubmission of a deliberately slow tree answers from the
		// fast run's result.
		return memo.Sum("serve.job", []byte(req.Type), nums[:]), true
	case JobStrand:
		st := req.Strand
		var nums [24]byte
		binary.BigEndian.PutUint64(nums[0:], uint64(int64(st.Procs)))
		binary.BigEndian.PutUint64(nums[8:], uint64(st.Seed))
		binary.BigEndian.PutUint64(nums[16:], uint64(st.MaxCycles))
		return memo.Sum("serve.job", []byte(req.Type),
			[]byte(st.Source), []byte(st.Goal), nums[:]), true
	case JobPipeline:
		// Deliberately uncacheable at the job level: pipeline value lives in
		// the stream, and the engine's per-stage prefix digests already reuse
		// identical upstream work across jobs, including partial overlaps the
		// whole-job digest could never express.
		return memo.Key{}, false
	case JobSearch:
		if req.Search.FirstOnly {
			// Deliberately uncacheable: which match a FirstOnly search commits
			// to is unspecified (the or-parallel cut races), so two equal
			// submissions may legitimately hold different answers. Serving one
			// job's winner as another's would silently promote a race outcome
			// into a cross-job contract. Per-job determinism is provided by
			// the WAL decision record instead, which binds exactly one job's
			// lives together.
			return memo.Key{}, false
		}
		// Exhaustive searches report every occurrence in canonical
		// (seq_index, pos) order, so equal specs produce equal results.
		return memo.Sum("serve.job", append([][]byte{[]byte(req.Type)}, req.Search.DigestFields()...)...), true
	case JobGrid:
		// Each Jacobi sweep is a pure function of the previous grid, so the
		// relaxed field is bitwise identical for any worker count or
		// crash/resume history.
		return memo.Sum("serve.job", append([][]byte{[]byte(req.Type)}, req.Grid.DigestFields()...)...), true
	case JobSort:
		return memo.Sum("serve.job", append([][]byte{[]byte(req.Type)}, req.Sort.DigestFields()...)...), true
	default:
		return memo.Key{}, false
	}
}

// memoPayload serializes a finished job's result block as its job-level
// memo entry (the block alone, without identity), or nil when there is
// nothing to cache (test bodies).
func memoPayload(res Results) memo.Bytes {
	if res == (Results{}) {
		return nil
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return nil
	}
	return blob
}

// memoResults decodes a job-level memo entry. The entry's key digests the
// job type, so a non-empty block found under it is that type's result.
func memoResults(blob []byte) (Results, bool) {
	var res Results
	if json.Unmarshal(blob, &res) != nil || res == (Results{}) {
		return Results{}, false
	}
	return res, true
}
