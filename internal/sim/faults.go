package sim

import (
	"fmt"

	"repro/internal/dist"
)

// FaultPlan describes an adversarial network for a run: per-message loss and
// duplication probabilities, a bounded extra delivery delay, and scripted
// partitions with heal events. The Runner applies the plan in the delivery
// path.
//
// Every probabilistic decision is a pure function of (Seed ⊕ run seed,
// message Seq) — independent of wall time, scheduler internals and worker
// count — so a sweep's per-seed results and aggregates are bit-identical
// however the seeds are distributed over workers.
//
// Semantics, per message:
//
//   - Loss drops the message at send time. It is counted, never queued.
//   - Dup enqueues a second, independent copy (its own Seq, its own delay).
//     The copy is never itself dropped or re-duplicated.
//   - MaxDelay > 0 adds a per-copy uniform extra delay in [0, MaxDelay]
//     ticks before the copy becomes deliverable.
//   - A Partition blocks delivery between its two sides while active. The
//     blocked message stays queued and becomes deliverable at heal time:
//     partitions delay, they do not lose.
type FaultPlan struct {
	// Seed decorrelates fault decisions from the run seed (the effective
	// stream seed is Seed ⊕ run seed). Two plans differing only in Seed make
	// independent decisions on the same run.
	Seed int64
	// Loss is the per-message drop probability in [0, 1).
	Loss float64
	// Dup is the per-message duplication probability in [0, 1).
	Dup float64
	// MaxDelay bounds the extra per-copy delivery delay in ticks (0 = none).
	MaxDelay dist.Time
	// Partitions are the scripted partition windows.
	Partitions []dist.Partition
}

// Validate checks the plan against an n-process system. The probability
// checks are written so that NaN fails them.
func (fp *FaultPlan) Validate(n int) error {
	if !(fp.Loss >= 0 && fp.Loss < 1) {
		return fmt.Errorf("sim: FaultPlan.Loss = %v out of [0, 1)", fp.Loss)
	}
	if !(fp.Dup >= 0 && fp.Dup < 1) {
		return fmt.Errorf("sim: FaultPlan.Dup = %v out of [0, 1)", fp.Dup)
	}
	if fp.MaxDelay < 0 {
		return fmt.Errorf("sim: FaultPlan.MaxDelay = %d is negative", int64(fp.MaxDelay))
	}
	for i, pt := range fp.Partitions {
		if err := pt.Validate(n); err != nil {
			return fmt.Errorf("sim: FaultPlan.Partitions[%d]: %w", i, err)
		}
	}
	return nil
}

// Blocked reports whether a message from `from` to `to` is undeliverable at
// time t because an active partition separates them.
func (fp *FaultPlan) Blocked(from, to dist.ProcID, t dist.Time) bool {
	for _, pt := range fp.Partitions {
		if pt.Blocks(from, to, t) {
			return true
		}
	}
	return false
}

// partitionedAt reports whether some partition is active at time t; when
// none is, Blocked is false for every pair.
func (fp *FaultPlan) partitionedAt(t dist.Time) bool {
	for _, pt := range fp.Partitions {
		if pt.From <= t && t < pt.Until {
			return true
		}
	}
	return false
}

// CutThrough reports whether some partition separating p and q denies the
// pair a usable window within a run of `horizon` ticks. Completion
// guarantees only cover pairs that are not cut through the horizon.
//
// A partition counts as cut unless it heals with drain slack to spare: the
// heal must land in the first half of the horizon (Until ≤ horizon/2),
// mirroring how EffectiveMaxSteps stretches default budgets to 2·Until. A
// heal at or just before the horizon boundary used to count as "reachable"
// with zero ticks left for parked operations to drain, turning honest parked
// ops into spurious completion failures under explicitly pinned MaxSteps.
//
// One-way partitions cut the pair in both roles: an ABD exchange needs the
// request direction and the reply direction, so blocking either parks it —
// Separates is deliberately direction-agnostic here.
func (fp *FaultPlan) CutThrough(p, q dist.ProcID, horizon dist.Time) bool {
	for _, pt := range fp.Partitions {
		if pt.Separates(p, q) && pt.From < horizon && (pt.Until == dist.NoCrash || pt.Until > horizon/2) {
			return true
		}
	}
	return false
}

// decide returns the fate of the message with sequence number seq under the
// given run seed: whether it is dropped, whether an extra copy is enqueued,
// and the extra delivery delay of the original and of the copy. Pure in
// (fp.Seed, runSeed, seq).
func (fp *FaultPlan) decide(runSeed, seq int64) (drop, dup bool, delay, dupDelay dist.Time) {
	h := Mix(uint64(fp.Seed)^uint64(runSeed)*0x9E3779B97F4A7C15, uint64(seq))
	if fp.Loss > 0 && unitFloat(Mix(h, 1)) < fp.Loss {
		return true, false, 0, 0
	}
	if fp.Dup > 0 && unitFloat(Mix(h, 2)) < fp.Dup {
		dup = true
	}
	if fp.MaxDelay > 0 {
		span := uint64(fp.MaxDelay) + 1
		delay = dist.Time(Mix(h, 3) % span)
		dupDelay = dist.Time(Mix(h, 4) % span)
	}
	return
}

// Mix combines two words into a well-mixed 64-bit value (splitmix64's
// finalizer over their sum). Fault decisions and the store's jittered
// arrival schedules use it instead of a stateful PRNG, so they depend only
// on the identity of what they decide (a message, a client's op index), not
// on how many random numbers were drawn before — a requirement for
// worker-count-independent sweeps.
func Mix(a, b uint64) uint64 {
	z := a + b*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// unitFloat maps a 64-bit value to [0, 1) with 53-bit resolution.
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// RefCounted is implemented by pooled message payloads that count their
// outstanding deliveries (the send-buffer lease contract; see
// Env.DeliveredOwned). On a run that grants ownership sim does all the
// counting but the recipient's own drop: Send, Broadcast and BroadcastAll
// AddRef once per recipient, and the Runner keeps the count honest where
// a delivery never happens or happens twice — DropRef for a copy dropped
// by loss or discarded from an inbox (a recovery, Reset, Release), AddRef
// before enqueueing a duplicated copy. The recipient of an owned delivery
// calls DropRef once it has processed it, and the implementation recycles
// the payload (Pool.Put) when its count falls to zero. Nothing is counted
// on runs whose trace records messages, where ownership is never granted
// and the trace retains every payload, nor by the explorer.
type RefCounted interface {
	AddRef()
	DropRef()
}
