package storage

// A CompactionLimiter bounds how hard background maintenance can hit the
// device: at most maxConcurrent compactions run at once across every engine
// sharing the limiter — typically all shards of a cloud.Durable store — so
// foreground traffic keeps its p99 while compactions queue on the slot
// semaphore instead of saturating the device all at once.
//
// A nil *CompactionLimiter imposes no limit; acquire is nil-safe.
type CompactionLimiter struct {
	sem chan struct{}
}

// NewCompactionLimiter builds a limiter allowing maxConcurrent simultaneous
// compactions. If maxConcurrent <= 0 the limiter is nil: unbounded.
func NewCompactionLimiter(maxConcurrent int) *CompactionLimiter {
	if maxConcurrent <= 0 {
		return nil
	}
	return &CompactionLimiter{sem: make(chan struct{}, maxConcurrent)}
}

// acquire claims a compaction slot, blocking while maxConcurrent others are
// in flight, and returns the release function. On a nil limiter it returns a
// no-op release immediately.
func (l *CompactionLimiter) acquire() (release func()) {
	if l == nil {
		return func() {}
	}
	l.sem <- struct{}{}
	return func() { <-l.sem }
}
