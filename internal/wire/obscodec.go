package wire

import (
	"strconv"

	"forkbase/internal/obs"
)

// OpName returns a stable lowercase label for an op code — the tag
// value metric series and slow-op log lines carry. Labels are part of
// the exported metric surface: renaming one breaks dashboards, so
// treat them like wire constants. Unknown codes format as "op<n>".
func OpName(op uint8) string {
	switch op {
	case OpHello:
		return "hello"
	case OpCancel:
		return "cancel"
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpApply:
		return "apply"
	case OpFork:
		return "fork"
	case OpMerge:
		return "merge"
	case OpTrack:
		return "track"
	case OpDiff:
		return "diff"
	case OpListKeys:
		return "list_keys"
	case OpListBranches:
		return "list_branches"
	case OpRenameBranch:
		return "rename_branch"
	case OpRemoveBranch:
		return "remove_branch"
	case OpPin:
		return "pin"
	case OpUnpin:
		return "unpin"
	case OpGC:
		return "gc"
	case OpValue:
		return "value"
	case OpStats:
		return "stats"
	case OpChunkHave:
		return "chunk_have"
	case OpChunkWant:
		return "chunk_want"
	case OpChunkSend:
		return "chunk_send"
	case OpPutChunked:
		return "put_chunked"
	case OpChunkWantPart:
		return "chunk_want_part"
	case OpServerStats:
		return "server_stats"
	}
	return "op" + strconv.Itoa(int(op))
}

// NumErrorCodes is one past the highest assigned error code — the
// bound for per-code error counter tables. (Deliberately not named
// Code*: it is a table size, not a wire code, and the wireexhaustive
// analyzer holds every Code* constant to the sentinel contract.)
const NumErrorCodes = CodeNotFound + 1

// CodeName returns a stable lowercase label for an error code, used
// as the code tag on error counters. Unknown codes format as
// "code<n>".
func CodeName(code uint8) string {
	switch code {
	case CodeGeneric:
		return "generic"
	case CodeKeyNotFound:
		return "key_not_found"
	case CodeBranchNotFound:
		return "branch_not_found"
	case CodeBranchExists:
		return "branch_exists"
	case CodeGuardFailed:
		return "guard_failed"
	case CodeConflict:
		return "conflict"
	case CodeAccessDenied:
		return "access_denied"
	case CodeCorrupt:
		return "corrupt"
	case CodeNotCollectable:
		return "not_collectable"
	case CodeSweepInProgress:
		return "sweep_in_progress"
	case CodeBadOptions:
		return "bad_options"
	case CodeTypeMismatch:
		return "type_mismatch"
	case CodeCanceled:
		return "canceled"
	case CodeDeadline:
		return "deadline"
	case CodeShutdown:
		return "shutdown"
	case CodeUnsupported:
		return "unsupported"
	case CodeProto:
		return "proto"
	case CodeDuplicateRequest:
		return "duplicate_request"
	case CodeNotFound:
		return "not_found"
	}
	return "code" + strconv.Itoa(int(code))
}

// sampleWireMin is the least bytes one encoded sample can occupy:
// two string length prefixes, kind, value, sum and a bucket count.
const sampleWireMin = 4 + 4 + 1 + 8 + 8 + 4

// EncodeSamples serializes an observability snapshot — the
// OpServerStats response body.
func EncodeSamples(e *Enc, samples []obs.Sample) {
	e.U32(uint32(len(samples)))
	for _, s := range samples {
		e.Str(s.Name)
		e.Str(s.Tags)
		e.U8(uint8(s.Kind))
		e.I64(s.Value)
		e.I64(s.Sum)
		e.U32(uint32(len(s.Buckets)))
		for _, b := range s.Buckets {
			e.U64(b)
		}
	}
}

// DecodeSamples parses an observability snapshot. The per-sample
// bucket slice is bounds-checked like every other count, so a hostile
// payload cannot balloon memory.
func DecodeSamples(d *Dec) []obs.Sample {
	n := d.Count(sampleWireMin)
	var out []obs.Sample
	for i := 0; i < n && d.err == nil; i++ {
		s := obs.Sample{
			Name:  d.Str(),
			Tags:  d.Str(),
			Kind:  obs.Kind(d.U8()),
			Value: d.I64(),
			Sum:   d.I64(),
		}
		nb := d.Count(8)
		if nb > 0 && d.err == nil {
			s.Buckets = make([]uint64, 0, nb)
			for j := 0; j < nb && d.err == nil; j++ {
				s.Buckets = append(s.Buckets, d.U64())
			}
		}
		if d.err == nil {
			out = append(out, s)
		}
	}
	return out
}
