package server

import (
	"sync"

	"swsm/internal/obs"
	"swsm/internal/server/api"
)

// EventBus fans job/sweep lifecycle events out to SSE subscribers.
// Publishing never blocks the scheduler: a subscriber whose buffer is
// full loses frames (each frame carries a sequence number, so a
// consumer can detect the gap and reconcile via GET /runs).
type EventBus struct {
	mu     sync.Mutex
	seq    int64
	subs   map[chan api.Event]struct{}
	closed bool

	// published counts events entering the bus; dropped counts frames a
	// slow subscriber lost.  Both are nil-safe (tests build bare buses).
	published *obs.Counter
	dropped   *obs.Counter
}

// NewEventBus creates a bus; the counters may be nil (tests) or the
// owner's published/dropped instruments.
func NewEventBus(published, dropped *obs.Counter) *EventBus {
	return &EventBus{
		subs:      make(map[chan api.Event]struct{}),
		published: published,
		dropped:   dropped,
	}
}

// SubscriberCount reports currently connected subscribers.
func (b *EventBus) SubscriberCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Subscribe registers a consumer; the returned cancel must be called
// exactly once (idempotence is not needed: the SSE handler defers it).
func (b *EventBus) Subscribe() (<-chan api.Event, func()) {
	ch := make(chan api.Event, 64)
	b.mu.Lock()
	if b.closed {
		close(ch)
		b.mu.Unlock()
		return ch, func() {}
	}
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	return ch, func() {
		b.mu.Lock()
		if _, ok := b.subs[ch]; ok {
			delete(b.subs, ch)
			close(ch)
		}
		b.mu.Unlock()
	}
}

// Publish stamps e with the next sequence number and fans it out,
// dropping frames to subscribers whose buffers are full.
func (b *EventBus) Publish(e api.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.seq++
	e.Seq = b.seq
	b.published.Inc()
	for ch := range b.subs {
		select {
		case ch <- e:
		default: // slow consumer: drop, the seq gap tells them
			b.dropped.Inc()
		}
	}
}

// Close terminates every subscriber stream (end of drain).
func (b *EventBus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for ch := range b.subs {
		delete(b.subs, ch)
		close(ch)
	}
}
