package sim

import (
	"fmt"

	"repro/internal/dist"
)

// CheckCaches compares the runner's cached per-tick state with the same
// state recomputed from scratch at the current tick: the alive set with
// Pattern.AliveAt, and every inbox's cached deliverable count that is still
// in date with a scan of the inbox. It reports how many cached counts it
// compared, so a caller can tell that the comparison covered something.
func (s *Snapshot) CheckCaches() (int, error) {
	r := s.r
	if want := r.cfg.Pattern.AliveAt(r.now); r.alive != want {
		return 0, fmt.Errorf("t=%d: cached alive set %v, the pattern says %v", int64(r.now), r.alive, want)
	}
	compared := 0
	for p := 1; p <= r.n; p++ {
		q := &r.procs[p].inbox
		if r.now >= q.readyUntil {
			continue // stale: the next query recounts
		}
		if scan := r.scanPending(q, r.now); q.ready != scan {
			return compared, fmt.Errorf("t=%d: p%d's cached deliverable count is %d, the scan finds %d", int64(r.now), p, q.ready, scan)
		}
		compared++
	}
	return compared, nil
}

// scanPending counts the entries of q deliverable at tick t: the reference
// scan that a cached deliverable count must match.
func (r *Runner) scanPending(q *inbox, t dist.Time) int {
	cnt := 0
	for i := q.head; i < len(q.buf); i++ {
		if r.deliverable(&q.buf[i], t) {
			cnt++
		}
	}
	return cnt
}
