package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestBudgetAndFirstDelay(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, DefaultMaxRetries}, {-1, 0}, {-7, 0}, {1, 1}, {5, 5}} {
		if got := Budget(tc.in); got != tc.want {
			t.Errorf("Budget(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, tc := range []struct{ in, want time.Duration }{
		{0, DefaultBackoff}, {-time.Second, DefaultBackoff}, {time.Millisecond, time.Millisecond},
	} {
		if got := FirstDelay(tc.in); got != tc.want {
			t.Errorf("FirstDelay(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestScheduleIsMaxOfDelayAndHint walks one schedule: each wait is the
// larger of the doubling delay and the hint, and a hint never resets or
// skips the doubling.
func TestScheduleIsMaxOfDelayAndHint(t *testing.T) {
	b := NewBackoff(10 * time.Millisecond)
	for i, step := range []struct{ hint, want time.Duration }{
		{0, 10 * time.Millisecond},
		{0, 20 * time.Millisecond},
		{time.Second, time.Second},
		{50 * time.Millisecond, 80 * time.Millisecond},
		{0, 160 * time.Millisecond},
	} {
		if got := b.next(step.hint); got != step.want {
			t.Fatalf("wait %d with hint %v = %v, want %v", i, step.hint, got, step.want)
		}
	}
}

func TestWaitSleepsAndDoubles(t *testing.T) {
	b := NewBackoff(5 * time.Millisecond)
	start := time.Now()
	if err := b.Wait(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(context.Background(), 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("two waits of 5 ms and max(10 ms, 20 ms) took %v", el)
	}
	if b.delay != 20*time.Millisecond {
		t.Fatalf("delay after two waits = %v, want 20ms", b.delay)
	}
}

func TestWaitStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := NewBackoff(time.Minute)
	time.AfterFunc(5*time.Millisecond, cancel)
	start := time.Now()
	err := b.Wait(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait returned %v, want context.Canceled", err)
	}
	// The one-minute delay must not run: cancellation ends the wait at
	// once. The bound is loose only to absorb scheduler noise.
	if el := time.Since(start); el > time.Second {
		t.Fatalf("cancelled Wait returned after %v", el)
	}

	// An already-dead context returns without sleeping at all.
	start = time.Now()
	if err := b.Wait(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on a cancelled ctx returned %v", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("Wait on a cancelled ctx returned after %v", el)
	}
}
