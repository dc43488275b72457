// Package retry is the repository's one backoff loop: the HTTP client's
// retry passes and the object store's transient-fault retries both wait
// through a Backoff, and resolve their configured budget and first delay
// against the same defaults.
package retry

import (
	"context"
	"time"
)

// DefaultMaxRetries is the retry budget when a configured count is zero.
const DefaultMaxRetries = 3

// DefaultBackoff is the first retry delay when a configured one is ≤ 0.
const DefaultBackoff = 50 * time.Millisecond

// Budget resolves a configured retry count: 0 means DefaultMaxRetries
// and a negative count means no retries.
func Budget(n int) int {
	switch {
	case n == 0:
		return DefaultMaxRetries
	case n < 0:
		return 0
	}
	return n
}

// FirstDelay resolves a configured first retry delay: ≤ 0 means
// DefaultBackoff.
func FirstDelay(d time.Duration) time.Duration {
	if d <= 0 {
		return DefaultBackoff
	}
	return d
}

// Backoff is one exponential backoff schedule. It is not safe for
// concurrent use; each retrying operation owns its own.
type Backoff struct {
	delay time.Duration
}

// NewBackoff returns a schedule whose first Wait lasts first.
func NewBackoff(first time.Duration) Backoff {
	return Backoff{delay: first}
}

// Wait sleeps for the larger of the current delay and hint, a server's
// Retry-After or zero, then doubles the delay. It returns ctx.Err() as
// soon as ctx ends.
func (b *Backoff) Wait(ctx context.Context, hint time.Duration) error {
	t := time.NewTimer(b.next(hint))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// next returns the coming wait and doubles the delay.
func (b *Backoff) next(hint time.Duration) time.Duration {
	d := max(b.delay, hint)
	b.delay *= 2
	return d
}
