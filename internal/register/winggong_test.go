package register

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
)

// linearizableWingGong is the differential oracle for the zone checker:
// Wing & Gong's exhaustive search for a linearization, memoized on (set of
// linearized ops, register value). Unlike the zone checker it needs no
// unique-write precondition, so tests whose hand-built histories repeat a
// write value call it by name. It tracks the linearized set in one uint64,
// so a history holds at most 64 ops.
func linearizableWingGong(ops []OpRecord, initial Value) (bool, error) {
	if len(ops) > 64 {
		return false, fmt.Errorf("register: history of %d ops exceeds the Wing-Gong oracle's 64-op limit", len(ops))
	}
	c := wingGong{ops: ops, memo: make(map[wgState]bool)}
	for i, o := range ops {
		if o.Complete {
			c.completeMask |= 1 << uint(i)
		}
	}
	return c.search(0, initial), nil
}

type wgState struct {
	mask uint64
	cur  Value
}

type wingGong struct {
	ops          []OpRecord
	completeMask uint64
	memo         map[wgState]bool
}

// search tries to extend a linearization in which the operations of mask
// have taken effect and the register currently holds cur.
func (c *wingGong) search(mask uint64, cur Value) bool {
	if mask&c.completeMask == c.completeMask {
		return true // every complete op linearized; pending ops may be dropped
	}
	st := wgState{mask: mask, cur: cur}
	if v, ok := c.memo[st]; ok {
		return v
	}
	c.memo[st] = false // guard against re-entry; overwritten below

	// minRet is the earliest response among unlinearized complete ops: an
	// operation may linearize next only if it was invoked at or before that
	// response (otherwise the completed op would have to precede it).
	minRet := dist.Time(1<<62 - 1)
	for i, o := range c.ops {
		if mask&(1<<uint(i)) == 0 && o.Complete && o.Returned < minRet {
			minRet = o.Returned
		}
	}
	ok := false
	for i, o := range c.ops {
		bit := uint64(1) << uint(i)
		if mask&bit != 0 || o.Invoked > minRet {
			continue
		}
		switch o.Kind {
		case WriteOp:
			ok = c.search(mask|bit, o.Arg)
		case ReadOp:
			ok = (!o.Complete || o.Ret == cur) && c.search(mask|bit, cur)
		}
		if ok {
			break
		}
	}
	c.memo[st] = ok
	return ok
}

// linearizableHistory returns a random register history of up to n ops from
// procs processes that linearizes from 0 by construction, with write values
// 1, 2, 3, … in invocation order. Each op takes effect at a random point of
// its window and a read returns the value the register holds there. Ticks
// are small, so invocations and returns often share one, and points are
// drawn at quarter ticks, so ops that share a tick take effect in either
// order. With probability pPending an op stays pending, ending its
// process's script, and takes effect or not at random.
func linearizableHistory(rng *rand.Rand, procs, n int, pPending float64) []OpRecord {
	type point struct {
		at     int64
		i      int
		effect bool
	}
	ops := make([]OpRecord, 0, n)
	pts := make([]point, 0, n)
	cursor := make([]dist.Time, procs)
	live := make([]int, procs)
	for p := range live {
		live[p] = p
	}
	writes := 0
	for len(ops) < n && len(live) > 0 {
		k := rng.Intn(len(live))
		p := live[k]
		inv := cursor[p] + dist.Time(rng.Intn(3))
		ret := inv + dist.Time(rng.Intn(4))
		cursor[p] = ret + dist.Time(rng.Intn(2))
		o := OpRecord{Proc: dist.ProcID(p + 1), Seq: int64(len(ops)), Kind: ReadOp, Invoked: inv, Returned: ret, Complete: true}
		if rng.Intn(2) == 0 {
			writes++
			o.Kind, o.Arg = WriteOp, Value(writes)
		}
		effect := true
		if rng.Float64() < pPending {
			o.Complete, o.Returned = false, 0
			effect = rng.Intn(2) == 0
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		pts = append(pts, point{at: 4*int64(inv) + rng.Int63n(4*int64(ret-inv)+4), i: len(ops), effect: effect})
		ops = append(ops, o)
	}
	slices.SortFunc(pts, func(a, b point) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.i, b.i)) })
	cur := Value(0)
	for _, pt := range pts {
		switch o := &ops[pt.i]; {
		case !pt.effect:
		case o.Kind == WriteOp:
			cur = o.Arg
		default:
			o.Ret = cur
		}
	}
	return ops
}

// corruptRead points one random complete read at a value never written, at
// the initial value, or at a random written value (often a stale one).
func corruptRead(rng *rand.Rand, ops []OpRecord) {
	var reads []int
	writes := 0
	for i, o := range ops {
		if o.Kind == WriteOp {
			writes++
		} else if o.Complete {
			reads = append(reads, i)
		}
	}
	if len(reads) == 0 {
		return
	}
	o := &ops[reads[rng.Intn(len(reads))]]
	switch rng.Intn(3) {
	case 0:
		o.Ret = 1_000_000
	case 1:
		o.Ret = 0
	default:
		if writes > 0 {
			o.Ret = Value(1 + rng.Intn(writes))
		}
	}
}

// randomDifferentialHistory draws one history for the differential test:
// 1–5 processes, up to 6, 12, 24 or 64 ops, pending ops, and one corrupted
// read two times in three, in invocation or shuffled order.
func randomDifferentialHistory(rng *rand.Rand) []OpRecord {
	sizes := [...]int{6, 12, 24, 64}
	ops := linearizableHistory(rng, 1+rng.Intn(5), 1+rng.Intn(sizes[rng.Intn(len(sizes))]), 0.3*rng.Float64())
	if rng.Intn(3) != 0 {
		corruptRead(rng, ops)
	}
	if rng.Intn(4) == 0 {
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	}
	return ops
}

// requireZoneMatchesWingGong fails unless both checkers accept ops or both
// reject it, and reports which verdict they agreed on.
func requireZoneMatchesWingGong(t testing.TB, ops []OpRecord) bool {
	t.Helper()
	want, err := linearizableWingGong(ops, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CheckLinearizable(ops, 0)
	if err != nil {
		t.Fatalf("zone checker: %v", err)
	}
	if got != want {
		t.Fatalf("zone checker says linearizable=%v, Wing-Gong says %v, for:\n%s", got, want, ExplainNonLinearizable(ops))
	}
	return got
}

// TestZoneMatchesWingGong is the differential test: on random unique-write
// histories of up to 64 ops — pending reads and writes, unread pending
// writes, equal-tick invoke/return ties, reads of the initial value and
// corrupted reads — the zone checker and the Wing-Gong oracle return the
// same verdict.
func TestZoneMatchesWingGong(t *testing.T) {
	histories := 300_000
	if testing.Short() {
		histories = 30_000
	}
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	for range histories {
		if requireZoneMatchesWingGong(t, randomDifferentialHistory(rng)) {
			accepted++
		}
	}
	// Both verdicts must be well represented, or agreement proves little.
	if accepted < histories/5 || accepted > histories*4/5 {
		t.Fatalf("%d of %d histories linearizable: the generator is lopsided", accepted, histories)
	}
	t.Logf("%d histories, %d linearizable, zero disagreements", histories, accepted)
}

// decodeHistory turns fuzz bytes into a unique-write history of at most 64
// ops, three bytes per op. Byte 0 picks the process (low two bits), a write
// (bit 2), a read that returns the latest value written so far (bit 3)
// rather than byte 2's choice, and a pending op that ends its process's
// script (bits 4–5 both set). Byte 1 holds the gap before the invocation,
// the duration and the gap after the return, each small so ticks tie.
// Byte 2 picks a read's value: 0 is the initial value, 1–64 a write (maybe
// one not yet invoked) and 65 a value never written.
func decodeHistory(data []byte) []OpRecord {
	var ops []OpRecord
	var cursor [4]dist.Time
	var ended [4]bool
	writes := 0
	for ; len(data) >= 3 && len(ops) < 64; data = data[3:] {
		b0, b1, b2 := data[0], data[1], data[2]
		p := b0 & 3
		if ended[p] {
			continue
		}
		inv := cursor[p] + dist.Time(b1&3)
		ret := inv + dist.Time(b1>>2&3)
		cursor[p] = ret + dist.Time(b1>>4&1)
		o := OpRecord{Proc: dist.ProcID(p + 1), Seq: int64(len(ops)), Invoked: inv, Returned: ret, Complete: true}
		switch {
		case b0&4 != 0:
			writes++
			o.Kind, o.Arg = WriteOp, Value(writes)
		case b0&8 != 0:
			o.Kind, o.Ret = ReadOp, Value(writes)
		default:
			o.Kind, o.Ret = ReadOp, Value(b2%66)
		}
		if b0&0x30 == 0x30 {
			o.Complete, o.Returned = false, 0
			ended[p] = true
		}
		ops = append(ops, o)
	}
	return ops
}

// FuzzZoneMatchesWingGong fuzzes the differential test: every decoded
// history gets the same verdict from both checkers. The seed corpus lives in
// testdata/fuzz/FuzzZoneMatchesWingGong.
func FuzzZoneMatchesWingGong(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 4, 0, 1, 4, 1})          // write(1) [0,1], read()=1 [0,1]
	f.Add([]byte{4, 4, 0, 9, 1, 0, 0, 1, 0}) // a read that ties the write's return, then a stale one
	f.Fuzz(func(t *testing.T, data []byte) {
		requireZoneMatchesWingGong(t, decodeHistory(data))
	})
}
