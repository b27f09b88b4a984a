package runtime

import "flexrpc/internal/clock"

// The clock types live in the leaf internal/clock package, which
// internal/sunrpc imports too; the aliases keep this package's API.
type (
	Clock     = clock.Clock
	FakeClock = clock.FakeClock
)

// WallClock is the real time.Now/time.NewTimer clock every
// production path uses.
var WallClock = clock.WallClock

// NewFakeClock returns a fake clock at an arbitrary fixed epoch.
func NewFakeClock() *FakeClock { return clock.NewFakeClock() }
