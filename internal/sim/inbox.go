package sim

import (
	"math"

	"repro/internal/dist"
)

// inbox is a process's queue of in-transit messages, laid out for the
// runner's hot path: messages are stored by value in one growable buffer, so
// sending never allocates once the buffer has reached the backlog high-water
// mark, and the common delivery (oldest deliverable message, which is the
// head) is a cursor increment instead of the O(queue) copy-on-remove of a
// slice-of-pointers queue.
//
// Deliveries from the middle of the queue (DeliverMatch, a partition or a
// delay skipping older messages) tombstone the entry in place; the head
// cursor skips tombstones as it passes them. A drained queue rewinds its
// buffer to the start, reusing its capacity forever.
type inbox struct {
	buf  []inboxEntry
	head int // index of the oldest possibly-live entry
	live int // number of non-tombstoned entries in buf[head:]
	// Under a FaultPlan, ready counts the entries deliverable at every tick
	// before readyUntil (see Runner.pendingCount); readyUntil 0 marks the
	// count stale.
	ready      int
	readyUntil dist.Time
}

// inboxEntry is one queued message and the earliest time it may be
// delivered (fault-injected extra delay). An entry delivered out of order
// keeps its slot until the head cursor passes it, marked by the goneAt
// sentinel in notBefore — no flag word, so an entry is a Message plus one
// Time (48 B on 64-bit targets).
type inboxEntry struct {
	msg       Message
	notBefore dist.Time
}

// goneAt is the notBefore of a tombstoned entry. It lies after every tick a
// run reaches, so a tombstone is never deliverable either.
const goneAt = dist.Time(math.MaxInt64)

// gone reports whether the entry is a tombstone.
func (e *inboxEntry) gone() bool { return e.notBefore == goneAt }

// push appends a message to the queue, deliverable no earlier than notBefore.
func (q *inbox) push(m Message, notBefore dist.Time) {
	q.buf = append(q.buf, inboxEntry{msg: m, notBefore: notBefore})
	q.live++
}

// wipe empties the queue, keeping the buffer capacity, at a process
// recovery and between runs. When payloads are leased (owned: the trace
// records no messages) Send counted each parked delivery in its payload's
// lease refcount (Env.DeliveredOwned), so every live RefCounted entry must
// give its reference back before it is discarded or the payload pool leaks
// a slot per dropped message. Runs whose trace records messages count
// nothing; the trace retains the payloads.
func (q *inbox) wipe(owned bool) {
	if owned {
		for i := q.head; i < len(q.buf); i++ {
			if e := &q.buf[i]; !e.gone() {
				if rc, ok := e.msg.Payload.(RefCounted); ok {
					rc.DropRef()
				}
			}
		}
	}
	q.buf, q.head, q.live, q.readyUntil = q.buf[:0], 0, 0, 0
}

// skipGone advances head past tombstones, rewinds the drained buffer, and
// compacts once dead entries dominate — both the consumed prefix and
// tombstones scattered behind a blocked head (a partition, a delay or a
// DeliverMatch can pin the oldest message while later ones flow) — so the
// buffer and its scans stay O(backlog) instead of O(messages ever
// received). Every compaction drops more than half the window, so
// deliveries stay amortized O(1).
func (q *inbox) skipGone() {
	for q.head < len(q.buf) && q.buf[q.head].gone() {
		q.head++
	}
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
		return
	}
	if dead := len(q.buf) - q.head - q.live; dead > 32 && dead > q.live {
		w := 0
		for i := q.head; i < len(q.buf); i++ {
			if !q.buf[i].gone() {
				q.buf[w] = q.buf[i]
				w++
			}
		}
		q.buf = q.buf[:w]
		q.head = 0
		return
	}
	if q.head > 32 && q.head > len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
}

// take removes the entry at index i (which must be live) and returns its
// message.
func (q *inbox) take(i int) Message {
	m := q.buf[i].msg
	if i == q.head {
		q.head++
	} else {
		q.buf[i].notBefore = goneAt
	}
	q.live--
	q.skipGone()
	return m
}
