package wire

import (
	"strconv"

	"forkbase/internal/obs"
)

// opNames are the op labels, indexed by op code.
var opNames = [OpMax]string{
	OpHello:         "hello",
	OpCancel:        "cancel",
	OpGet:           "get",
	OpPut:           "put",
	OpApply:         "apply",
	OpFork:          "fork",
	OpMerge:         "merge",
	OpTrack:         "track",
	OpDiff:          "diff",
	OpListKeys:      "list_keys",
	OpListBranches:  "list_branches",
	OpRenameBranch:  "rename_branch",
	OpRemoveBranch:  "remove_branch",
	OpPin:           "pin",
	OpUnpin:         "unpin",
	OpGC:            "gc",
	OpValue:         "value",
	OpChunkHave:     "chunk_have",
	OpChunkWant:     "chunk_want",
	OpChunkSend:     "chunk_send",
	OpPutChunked:    "put_chunked",
	OpChunkWantPart: "chunk_want_part",
	OpServerStats:   "server_stats",
}

// OpName returns a stable lowercase label for an op code — the tag
// value metric series and slow-op log lines carry. Labels are part of
// the exported metric surface: renaming one breaks dashboards, so
// treat them like wire constants. Unknown codes format as "op<n>".
func OpName(op uint8) string {
	if KnownOp(op) {
		return opNames[op]
	}
	return "op" + strconv.Itoa(int(op))
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
