package sunrpc

import (
	"errors"
	"syscall"
)

// acceptAction classifies an Accept error (see classifyAcceptError).
type acceptAction int

const (
	acceptFatal   acceptAction = iota // unknown or permanent: stop the shard
	acceptRetry                       // a connection died in the backlog: retry now
	acceptBackoff                     // resource exhaustion: back off at the cap
)

// classifyAcceptError classifies on errno — the ground truth the
// deprecated net.Error.Temporary lumped together. A connection that
// was aborted while queued in the backlog (ECONNABORTED, or a signal
// interrupting the accept) costs nothing to retry immediately; fd or
// buffer exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) only clears on the
// timescale of other connections closing, so those back off; anything
// else — including errors that carry no errno at all — is treated as
// permanent rather than guessed at.
func classifyAcceptError(err error) acceptAction {
	var errno syscall.Errno
	if !errors.As(err, &errno) {
		return acceptFatal
	}
	switch errno {
	case syscall.ECONNABORTED, syscall.EINTR, syscall.ECONNRESET:
		return acceptRetry
	case syscall.EMFILE, syscall.ENFILE, syscall.ENOBUFS, syscall.ENOMEM:
		return acceptBackoff
	}
	return acceptFatal
}
