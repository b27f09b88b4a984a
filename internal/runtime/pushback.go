package runtime

import (
	"errors"
	"fmt"
	"time"
)

// Pushback: when admission control (its inflight cap, or a drain)
// rejects a call, the server answers with a pushback frame instead of
// executing it: an ordinary session reply with an empty body whose
// status word carries the code and an advisory retry-after (session.go
// has the layout, DESIGN.md §6 the table).
//
// The semantic that makes pushback compose with at-most-once: a
// pushed-back call was rejected before decode, so the server
// certainly did not execute it — retrying is safe for every
// operation, idempotent or not, with or without a reply cache.

// ErrOverloaded reports that the server shed this call before
// decoding it and certainly did not execute it. RetryAfter, when
// nonzero, is the server's advisory pause before retrying — the
// retry loop honors it in place of its own jittered backoff.
// Draining distinguishes a server that is going away (retrying this
// endpoint is pointless) from one that is momentarily at capacity.
type ErrOverloaded struct {
	RetryAfter time.Duration
	Draining   bool
}

func (e *ErrOverloaded) Error() string {
	kind := "overloaded"
	if e.Draining {
		kind = "draining"
	}
	if e.RetryAfter > 0 {
		return fmt.Sprintf("runtime: server %s (retry after %v)", kind, e.RetryAfter)
	}
	return "runtime: server " + kind
}

// ErrDraining is matched (errors.Is) by pushback errors from a
// draining server, and is the taxonomy cause transports use when a
// drain unparks their blocked waiters.
var ErrDraining = errors.New("runtime: server draining")

// Is makes errors.Is(err, ErrDraining) true for draining pushback.
func (e *ErrOverloaded) Is(target error) bool {
	return target == ErrDraining && e.Draining
}
