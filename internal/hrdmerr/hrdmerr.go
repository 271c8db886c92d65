// Package hrdmerr is the engine's structured error taxonomy: every
// error that crosses an API boundary — engine entry points, the
// session layer, the wire protocol — carries a stable numeric Code
// that clients can branch on and servers can put on the wire, while
// the underlying cause stays reachable through errors.Is / errors.As.
//
// The taxonomy replaces stringly errors at the boundaries only; deep
// internal errors remain plain and are classified where they surface
// (hql.Parse wraps parse failures, the session layer wraps commit
// conflicts, the engine wraps cancellation). Wrap never re-classifies
// an error that already carries a code, so the earliest classification
// wins no matter how many layers re-wrap on the way out.
//
// Wire codes are part of the protocol contract (docs/SERVER.md) and
// must never be renumbered; TestWireCodesStable pins them.
package hrdmerr

import (
	"context"
	"errors"
	"fmt"
)

// Code is a stable numeric error class. The zero value is reserved
// (absence of an error); new codes append, existing codes never move.
type Code int

const (
	// CodeInternal classifies unexpected failures that fit no other
	// class — the catch-all a client should treat as a server bug.
	CodeInternal Code = 1
	// CodeParse: the query text does not lex or parse as HQL.
	CodeParse Code = 2
	// CodePlan: reserved; no current path returns it. A text the
	// planner refuses is semantic, from every entry point.
	CodePlan Code = 3
	// CodeSemantic: the query parsed but cannot be evaluated — unknown
	// relation, sort mismatch, malformed condition.
	CodeSemantic Code = 4
	// CodeConflict: a write-group commit failed validation — duplicate
	// key, contradicting merge — and nothing was applied.
	CodeConflict Code = 5
	// CodeState: the operation is illegal in the session's current
	// state (commit with no open group, begin while one is open).
	CodeState Code = 6
	// CodeOverloaded: admission control rejected the request — the
	// server is at its connection or in-flight-query limit. Retryable.
	CodeOverloaded Code = 7
	// CodeDeadline: the per-query deadline expired mid-execution.
	CodeDeadline Code = 8
	// CodeCanceled: the caller canceled the query's context.
	CodeCanceled Code = 9
	// CodeUnavailable: the server is draining and accepts no new work.
	CodeUnavailable Code = 10
	// CodeBadRequest: the wire request itself is malformed — not JSON,
	// unknown op, missing required field.
	CodeBadRequest Code = 11
)

// String names a code for rendering; the wire carries the number.
func (c Code) String() string {
	switch c {
	case CodeInternal:
		return "internal"
	case CodeParse:
		return "parse"
	case CodePlan:
		return "plan"
	case CodeSemantic:
		return "semantic"
	case CodeConflict:
		return "conflict"
	case CodeState:
		return "state"
	case CodeOverloaded:
		return "overloaded"
	case CodeDeadline:
		return "deadline"
	case CodeCanceled:
		return "canceled"
	case CodeUnavailable:
		return "unavailable"
	case CodeBadRequest:
		return "bad_request"
	}
	return fmt.Sprintf("code(%d)", int(c))
}

// Error is a classified error: a code plus the message (or wrapped
// cause) it classifies. It supports errors.Is against the package
// sentinels — two *Errors match when their codes match — and
// errors.As for extracting the code from an arbitrary chain.
type Error struct {
	code  Code
	msg   string
	cause error
}

// New builds a classified error from a formatted message.
func New(code Code, format string, args ...any) *Error {
	return &Error{code: code, msg: fmt.Sprintf(format, args...)}
}

// Wrap classifies err under code, preserving it as the cause. nil maps
// to nil. An error that already carries a code anywhere in its chain
// is returned unchanged — the earliest classification wins — and
// context cancellation/deadline errors classify as CodeCanceled /
// CodeDeadline regardless of the code requested, so a cancellation
// surfacing through a semantic-error path keeps its real class.
func Wrap(code Code, err error) error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return err
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		code = CodeDeadline
	case errors.Is(err, context.Canceled):
		code = CodeCanceled
	}
	return &Error{code: code, msg: err.Error(), cause: err}
}

// FromContext classifies a context error (ctx.Err()); nil maps to nil.
func FromContext(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &Error{code: CodeDeadline, msg: "query deadline exceeded", cause: err}
	}
	return &Error{code: CodeCanceled, msg: "query canceled", cause: err}
}

// Error renders "class: message".
func (e *Error) Error() string {
	return e.code.String() + ": " + e.msg
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.cause }

// Code returns the error's class.
func (e *Error) Code() Code { return e.code }

// Is matches any *Error carrying the same code, which is what makes
// errors.Is(err, hrdmerr.ErrParse) work however deeply err is wrapped.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.code == e.code
}

// Sentinels for errors.Is matching: errors.Is(err, ErrConflict) is
// true exactly when err's chain contains a CodeConflict *Error.
var (
	ErrInternal    = &Error{code: CodeInternal, msg: "internal error"}
	ErrParse       = &Error{code: CodeParse, msg: "parse error"}
	ErrPlan        = &Error{code: CodePlan, msg: "plan error"}
	ErrSemantic    = &Error{code: CodeSemantic, msg: "semantic error"}
	ErrConflict    = &Error{code: CodeConflict, msg: "write conflict"}
	ErrState       = &Error{code: CodeState, msg: "invalid session state"}
	ErrOverloaded  = &Error{code: CodeOverloaded, msg: "overloaded"}
	ErrDeadline    = &Error{code: CodeDeadline, msg: "deadline exceeded"}
	ErrCanceled    = &Error{code: CodeCanceled, msg: "canceled"}
	ErrUnavailable = &Error{code: CodeUnavailable, msg: "unavailable"}
	ErrBadRequest  = &Error{code: CodeBadRequest, msg: "bad request"}
)

// CodeOf extracts the code carried anywhere in err's chain;
// unclassified errors report CodeInternal, nil reports 0.
func CodeOf(err error) Code {
	if err == nil {
		return 0
	}
	var e *Error
	if errors.As(err, &e) {
		return e.code
	}
	return CodeInternal
}

// Message returns the human half of the error, stripped of the code
// prefix a classified error renders — what the wire's msg field and
// the CLI's error[CODE] line carry next to the numeric code.
func Message(err error) string {
	if err == nil {
		return ""
	}
	var e *Error
	if errors.As(err, &e) {
		return e.msg
	}
	return err.Error()
}
