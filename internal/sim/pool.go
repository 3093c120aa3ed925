package sim

// poolCap bounds a Pool's free list, so pool memory tracks the in-flight
// high-water mark, not the run length. It must sit above the largest set
// of payloads in circulation at once (for the store: windows × shards ×
// group fan-out, requests and replies together), or the overflow drops
// re-allocate on the next lease and the steady state no longer runs
// allocation-free.
const poolCap = 1024

// Pool is a capped LIFO free list of pooled message payloads of type T,
// the recycling half of the send-buffer lease contract (see
// Env.DeliveredOwned and RefCounted): a payload leased by Get goes back by
// Put once its last reference is dropped. A runner owns one Pool per
// payload type (PoolOf) and steps one automaton at a time, so a Pool needs
// no lock.
type Pool[T any] struct{ free []*T }

// Get returns the payload put last, or a new zero one when the list is
// empty. A recycled payload keeps what its last use left in it, so the
// caller resets what it reads.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	return new(T)
}

// Put returns x to the list, unless the list is full.
func (p *Pool[T]) Put(x *T) {
	if len(p.free) < poolCap {
		p.free = append(p.free, x)
	}
}

// poolSet is one runner's payload pools, one *Pool[T] per payload type in
// first-use order. It lives in the runner's inbox set, so it travels with
// the set through Release: the set is parked only once every payload that
// was queued in it has come back.
type poolSet struct{ all []any }

// PoolOf returns the stepping runner's pool of T payloads, made on first
// use. Every automaton of a runner, and every layer of a Stack, shares it:
// requests flow client → replica and replies back, so per-node pools would
// starve, each side hoarding payloads while the other allocates. Look the
// pool up at every lease rather than keeping it: after Release the set, and
// with it the pool, may serve another runner. An Env that no runner or
// explorer bound (a zero Env in a test) gets a pool set of its own.
func PoolOf[T any](e *Env) *Pool[T] {
	if e.pools == nil {
		e.pools = new(poolSet)
	}
	for _, p := range e.pools.all {
		if p, ok := p.(*Pool[T]); ok {
			return p
		}
	}
	p := new(Pool[T])
	e.pools.all = append(e.pools.all, p)
	return p
}
