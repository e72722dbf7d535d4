package wire

import (
	"context"
	"errors"
	"strconv"

	"forkbase/internal/branch"
	"forkbase/internal/core"
	"forkbase/internal/merge"
	"forkbase/internal/servlet"
	"forkbase/internal/store"
	"forkbase/internal/types"
)

// ErrShutdown is returned for requests that arrive while the server
// is draining: in-flight work completes, new work is refused.
var ErrShutdown = errors.New("wire: server shutting down")

// ErrUnsupported reports a request the server understood but cannot
// serve (e.g. a chunk op against a backend without a local chunk
// store).
var ErrUnsupported = errors.New("wire: operation not supported by this server")

// ErrDuplicateRequest reports a request id that is already in flight
// on the same connection. The server refuses the newcomer instead of
// overwriting the original's registration — overwriting would leak
// the first request's context and make it uncancelable. The original
// request is unaffected; only the reusing frame gets this error.
var ErrDuplicateRequest = errors.New("wire: request id already in flight")

// Error codes. A response's error payload leads with one of these so
// the client can rebuild the exact sentinel the backend returned —
// errors.Is works identically against a RemoteStore and an embedded
// DB, which is what lets the conformance suite run unchanged over a
// socket.
const (
	CodeGeneric uint8 = iota
	CodeKeyNotFound
	CodeBranchNotFound
	CodeBranchExists
	CodeGuardFailed
	CodeConflict
	CodeAccessDenied
	CodeCorrupt
	CodeNotCollectable
	CodeSweepInProgress
	CodeBadOptions
	CodeTypeMismatch
	CodeCanceled
	CodeDeadline
	CodeShutdown
	CodeUnsupported
	CodeProto // protocol violation reported per-request (unknown or response-only op)
	CodeDuplicateRequest
	// CodeNotFound carries store.ErrNotFound: a chunk the request named
	// or needs is not in the store. A chunked commit answers it when the
	// uploaded tree is incomplete, which is what tells the client to
	// renegotiate without its assumptions (see RemoteStore.Put).
	CodeNotFound
)

// NumErrorCodes is one past the highest assigned error code — the
// bound for per-code tables such as the server's error counters.
const NumErrorCodes = CodeNotFound + 1

// errorRow is one error code: its metric label and the sentinel a
// decoded error satisfies errors.Is against.
type errorRow struct {
	code     uint8
	name     string
	sentinel error
}

// errorTable declares every code once, in classification order:
// ErrorCode sends an error as the first row whose sentinel it matches,
// so a specific failure comes before the broad one it may wrap
// (GuardFailed before BranchNotFound, SweepInProgress before
// NotCollectable, the chunk-level NotFound last). CodeGeneric carries
// no sentinel: it is what an error matching no row travels as, and it
// decodes opaque.
var errorTable = [...]errorRow{
	{CodeGeneric, "generic", nil},
	{CodeGuardFailed, "guard_failed", branch.ErrGuardFailed},
	{CodeBranchExists, "branch_exists", branch.ErrBranchExists},
	{CodeBranchNotFound, "branch_not_found", branch.ErrBranchNotFound},
	{CodeKeyNotFound, "key_not_found", core.ErrKeyNotFound},
	{CodeConflict, "conflict", merge.ErrConflict},
	{CodeAccessDenied, "access_denied", servlet.ErrAccessDenied},
	{CodeCorrupt, "corrupt", store.ErrCorrupt},
	{CodeSweepInProgress, "sweep_in_progress", store.ErrSweepInProgress},
	{CodeNotCollectable, "not_collectable", store.ErrNotCollectable},
	{CodeBadOptions, "bad_options", core.ErrBadOptions},
	{CodeTypeMismatch, "type_mismatch", core.ErrTypeMismatch},
	{CodeCanceled, "canceled", context.Canceled},
	{CodeDeadline, "deadline", context.DeadlineExceeded},
	{CodeShutdown, "shutdown", ErrShutdown},
	{CodeUnsupported, "unsupported", ErrUnsupported},
	{CodeProto, "proto", ErrCodec},
	{CodeDuplicateRequest, "duplicate_request", ErrDuplicateRequest},
	{CodeNotFound, "not_found", store.ErrNotFound},
}

// errorsByCode is errorTable indexed by code, for decode and CodeName.
var errorsByCode = func() (t [NumErrorCodes]errorRow) {
	for _, r := range errorTable {
		t[r.code] = r
	}
	return t
}()

// ErrorCode classifies an error for transport: the first row of
// errorTable whose sentinel it matches, wrapped chains included.
func ErrorCode(err error) uint8 {
	for _, r := range errorTable {
		if r.sentinel != nil && errors.Is(err, r.sentinel) {
			return r.code
		}
	}
	return CodeGeneric
}

// CodeName returns a stable lowercase label for an error code, used
// as the code tag on error counters. Unknown codes format as
// "code<n>".
func CodeName(code uint8) string {
	if code < NumErrorCodes {
		return errorsByCode[code].name
	}
	return "code" + strconv.Itoa(int(code))
}

// remoteError is a decoded wire error: it prints the server's message
// and unwraps to the local sentinel, so errors.Is sees through it.
type remoteError struct {
	sentinel error
	msg      string
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.sentinel }

// ErrorPayload is the decoded form of an error response. Merge errors
// carry their conflict list; the rare paths that return both a uid and
// an error (durability reports) carry the uid.
type ErrorPayload struct {
	Err       error
	Conflicts []merge.Conflict
	UID       types.UID
}

// EncodeError serializes an error response body (the status byte is
// the caller's concern).
func EncodeError(e *Enc, err error, conflicts []merge.Conflict, uid types.UID) {
	e.U8(ErrorCode(err))
	e.Str(err.Error())
	EncodeConflicts(e, conflicts)
	e.UID(uid)
}

// DecodeError parses an error response body.
func DecodeError(d *Dec) (ErrorPayload, error) {
	code := d.U8()
	msg := d.Str()
	conflicts := DecodeConflicts(d)
	uid := d.UID()
	if err := d.Err(); err != nil {
		return ErrorPayload{}, err
	}
	err := errors.New(msg)
	if code < NumErrorCodes && errorsByCode[code].sentinel != nil {
		err = &remoteError{sentinel: errorsByCode[code].sentinel, msg: msg}
	}
	return ErrorPayload{Err: err, Conflicts: conflicts, UID: uid}, nil
}
