package dist

import "fmt"

// Partition is a scripted network partition: messages between the two sides
// A and B are undeliverable while the partition is active, i.e. during the
// half-open window [From, Until). Until = NoCrash means the partition never
// heals within any finite horizon. Processes inside one side, and processes
// in neither side, communicate normally.
//
// Partitions model the paper's "messages are delayed until ..." adversary as
// data: blocked messages are not lost, they stay queued and become
// deliverable at heal time, so a healed partition costs latency, never
// safety.
//
// OneWay makes the cut asymmetric: only messages from a process in A to a
// process in B are blocked; B→A traffic flows normally. This models
// one-directional link faults (A can be heard but cannot hear back —
// requests arrive, replies do not, or vice versa depending on which side the
// client sits).
type Partition struct {
	A, B   ProcSet
	From   Time
	Until  Time
	OneWay bool // block A→B only; B→A flows
}

// Validate checks the partition is well-formed for an n-process system.
func (pt Partition) Validate(n int) error {
	if pt.A.IsEmpty() || pt.B.IsEmpty() {
		return fmt.Errorf("dist: partition sides must be non-empty (A=%v B=%v)", pt.A, pt.B)
	}
	if !pt.A.Intersect(pt.B).IsEmpty() {
		return fmt.Errorf("dist: partition sides overlap: %v ∩ %v", pt.A, pt.B)
	}
	all := FullSet(n)
	if !pt.A.SubsetOf(all) || !pt.B.SubsetOf(all) {
		return fmt.Errorf("dist: partition sides exceed Π = {1..%d} (A=%v B=%v)", n, pt.A, pt.B)
	}
	if pt.From < 0 {
		return fmt.Errorf("dist: partition From = %d is negative", int64(pt.From))
	}
	if pt.Until <= pt.From {
		return fmt.Errorf("dist: partition window [%d, %d) is empty", int64(pt.From), int64(pt.Until))
	}
	return nil
}

// Separates reports whether p and q are on opposite sides of the partition
// (regardless of time).
func (pt Partition) Separates(p, q ProcID) bool {
	return (pt.A.Contains(p) && pt.B.Contains(q)) || (pt.A.Contains(q) && pt.B.Contains(p))
}

// Blocks reports whether a message from p to q is undeliverable at time t
// because this partition is active and cuts that direction. Symmetric
// partitions cut both directions; OneWay partitions cut A→B only.
func (pt Partition) Blocks(from, to ProcID, t Time) bool {
	if t < pt.From || t >= pt.Until {
		return false
	}
	if pt.OneWay {
		return pt.A.Contains(from) && pt.B.Contains(to)
	}
	return pt.Separates(from, to)
}

// String renders the partition for logs and errors.
func (pt Partition) String() string {
	arrow := "↮"
	if pt.OneWay {
		arrow = "↛"
	}
	if pt.Until == NoCrash {
		return fmt.Sprintf("%v%s%v@[%d,∞)", pt.A, arrow, pt.B, int64(pt.From))
	}
	return fmt.Sprintf("%v%s%v@[%d,%d)", pt.A, arrow, pt.B, int64(pt.From), int64(pt.Until))
}
