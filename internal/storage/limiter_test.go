package storage

import (
	"testing"
	"time"
)

func TestCompactionLimiterNilIsUnlimited(t *testing.T) {
	if NewCompactionLimiter(0) != nil || NewCompactionLimiter(-1) != nil {
		t.Fatal("unbounded limiter must be nil")
	}
	var l *CompactionLimiter
	release := l.acquire() // must not block or panic
	release()
}

func TestCompactionLimiterBoundsConcurrency(t *testing.T) {
	l := NewCompactionLimiter(1)
	release := l.acquire()
	acquired := make(chan struct{})
	go func() {
		r := l.acquire()
		close(acquired)
		r()
	}()
	select {
	case <-acquired:
		t.Fatal("second acquire succeeded while the slot was held")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("second acquire never unblocked after release")
	}
}
