package wire

import (
	"context"
	"errors"

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
// serve (e.g. Stats against a backend without counters).
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
	CodeProto // framing-level violation reported per-request (unknown op)
	CodeDuplicateRequest
	// CodeNotFound carries store.ErrNotFound: a chunk the request named
	// or needs is not in the store. A chunked commit answers it when the
	// uploaded tree is incomplete, which is what tells the client to
	// renegotiate without its assumptions (see RemoteStore.Put).
	CodeNotFound
)

// codeSentinels maps each code to the sentinel the decoded error must
// satisfy errors.Is against. CodeGeneric and unknown codes map to nil:
// the decoded error is opaque.
var codeSentinels = map[uint8]error{
	CodeKeyNotFound:      core.ErrKeyNotFound,
	CodeBranchNotFound:   branch.ErrBranchNotFound,
	CodeBranchExists:     branch.ErrBranchExists,
	CodeGuardFailed:      branch.ErrGuardFailed,
	CodeConflict:         merge.ErrConflict,
	CodeAccessDenied:     servlet.ErrAccessDenied,
	CodeCorrupt:          store.ErrCorrupt,
	CodeNotCollectable:   store.ErrNotCollectable,
	CodeSweepInProgress:  store.ErrSweepInProgress,
	CodeBadOptions:       core.ErrBadOptions,
	CodeTypeMismatch:     core.ErrTypeMismatch,
	CodeCanceled:         context.Canceled,
	CodeDeadline:         context.DeadlineExceeded,
	CodeShutdown:         ErrShutdown,
	CodeUnsupported:      ErrUnsupported,
	CodeProto:            ErrCodec,
	CodeDuplicateRequest: ErrDuplicateRequest,
	CodeNotFound:         store.ErrNotFound,
}

// ErrorCode classifies an error for transport. The first matching
// sentinel wins; wrapped chains are honoured via errors.Is.
func ErrorCode(err error) uint8 {
	// Ordered: specific failures before the broad ones they may wrap.
	for _, code := range []uint8{
		CodeGuardFailed, CodeBranchExists, CodeBranchNotFound, CodeKeyNotFound,
		CodeConflict, CodeAccessDenied, CodeCorrupt, CodeSweepInProgress,
		CodeNotCollectable, CodeBadOptions, CodeTypeMismatch,
		CodeCanceled, CodeDeadline, CodeShutdown, CodeUnsupported, CodeProto,
		CodeDuplicateRequest, CodeNotFound,
	} {
		if errors.Is(err, codeSentinels[code]) {
			return code
		}
	}
	return CodeGeneric
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
	var err error
	if sentinel := codeSentinels[code]; sentinel != nil {
		err = &remoteError{sentinel: sentinel, msg: msg}
	} else {
		err = errors.New(msg)
	}
	return ErrorPayload{Err: err, Conflicts: conflicts, UID: uid}, nil
}
