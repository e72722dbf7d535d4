package wire

import (
	"reflect"
	"testing"
)

// TestMetricLabelsGolden pins the op and error-code labels every
// forkbase_server_* and forkbase_client_* series carries. Dashboards,
// `forkcli stats -server` and the benchmark's layer report read these
// strings, so a label that changes here is a break of the exported
// metric surface, not a refactor.
func TestMetricLabelsGolden(t *testing.T) {
	wantOps := []string{
		"hello", "cancel", "get", "put", "apply", "fork", "merge", "track",
		"diff", "list_keys", "list_branches", "rename_branch",
		"remove_branch", "pin", "unpin", "gc", "value",
		"chunk_have", "chunk_want", "chunk_send", "put_chunked",
		"chunk_want_part", "server_stats",
	}
	var ops []string
	for op := OpHello; op < OpMax; op++ {
		ops = append(ops, OpName(op))
	}
	if !reflect.DeepEqual(ops, wantOps) {
		t.Fatalf("op labels changed:\n got %q\nwant %q", ops, wantOps)
	}
	if got := OpName(OpMax); got != "op24" {
		t.Fatalf("OpName(OpMax) = %q, want the op<n> fallback", got)
	}

	wantCodes := []string{
		"generic", "key_not_found", "branch_not_found", "branch_exists",
		"guard_failed", "conflict", "access_denied", "corrupt",
		"not_collectable", "sweep_in_progress", "bad_options",
		"type_mismatch", "canceled", "deadline", "shutdown", "unsupported",
		"proto", "duplicate_request", "not_found",
	}
	var codes []string
	for code := uint8(0); code < NumErrorCodes; code++ {
		codes = append(codes, CodeName(code))
	}
	if !reflect.DeepEqual(codes, wantCodes) {
		t.Fatalf("error-code labels changed:\n got %q\nwant %q", codes, wantCodes)
	}
	if got := CodeName(NumErrorCodes); got != "code19" {
		t.Fatalf("CodeName(NumErrorCodes) = %q, want the code<n> fallback", got)
	}
}
