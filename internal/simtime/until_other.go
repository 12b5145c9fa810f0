//go:build !linux

package simtime

import (
	"context"
	"time"
)

// wait sleeps on a runtime timer, which is millisecond-granular when the
// process is idle.
func wait(ctx context.Context, deadline time.Time) error {
	return sleep(ctx, time.Until(deadline))
}
