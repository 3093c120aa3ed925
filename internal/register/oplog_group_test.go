package register

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
)

// groupOpsByMaps is the map-based pairing the store's checker used before
// keyedHistories, kept as the oracle: a Return completes the latest Invoke
// of the same (process, seq), and a Return without one is ignored; each
// key's history is sorted by invocation time.
func groupOpsByMaps(events []sim.OpEvent) map[int][]OpRecord {
	type ik struct {
		p   dist.ProcID
		seq int64
	}
	type slot struct{ key, idx int }
	idx := make(map[ik]slot)
	byKey := make(map[int][]OpRecord)
	for _, ev := range events {
		k, op := ik{p: ev.P, seq: ev.Seq}, ev.Op
		if !ev.Return {
			idx[k] = slot{key: op.Key, idx: len(byKey[op.Key])}
			byKey[op.Key] = append(byKey[op.Key], OpRecord{
				Proc: ev.P, Seq: ev.Seq, Kind: OpKind(op.Kind), Arg: Value(op.Arg), Invoked: ev.T,
			})
		} else if s, found := idx[k]; found {
			o := &byKey[s.key][s.idx]
			o.Returned, o.Ret, o.Complete = ev.T, Value(op.Ret), true
		}
	}
	for _, ops := range byKey {
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].Invoked < ops[j].Invoked })
	}
	return byKey
}

// decodeOpLog reads an op log of at most 64 records, in tick order, from
// fuzz bytes, three per record: four processes, keys -1..2, seqs 0..7 (so
// seqs repeat within a process), Returns with and without an Invoke, and
// repeated Returns.
func decodeOpLog(data []byte) []sim.OpEvent {
	var ops []sim.OpEvent
	t := dist.Time(0)
	for ; len(data) >= 3 && len(ops) < 64; data = data[3:] {
		b0, b1, b2 := data[0], data[1], data[2]
		t += dist.Time(b0 & 3)
		ops = append(ops, sim.OpEvent{
			T:      t,
			P:      dist.ProcID(1 + b0>>2&3),
			Seq:    int64(b1 & 7),
			Return: b0&0x10 != 0,
			Op:     sim.OpDesc{Key: int(b1>>3&3) - 1, Kind: b2 & 1, Arg: int64(b2 >> 1), Ret: int64(b2)},
		})
	}
	return ops
}

// requireGroupingMatchesMaps checks KeyedOps and a reused keyedHistories
// against the map-based oracle on one op log: the same histories, and the
// same verdict text from the per-key check.
func requireGroupingMatchesMaps(t *testing.T, ops []sim.OpEvent) {
	t.Helper()
	want := groupOpsByMaps(ops)
	if got := KeyedOps(ops); !reflect.DeepEqual(got, want) {
		t.Fatalf("KeyedOps on %v:\n got %v\nwant %v", ops, got, want)
	}
	// Scratch that held another log first must not leak it into this one.
	var h keyedHistories
	h.fill(ops[len(ops)/2:])
	h.fill(ops)
	if got := h.byKey(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reused scratch on %v:\n got %v\nwant %v", ops, got, want)
	}
	got, wantErr := h.check(0), CheckKeyedLinearizable(want, 0)
	if (got == nil) != (wantErr == nil) || got != nil && got.Error() != wantErr.Error() {
		t.Fatalf("check on %v:\n got %v\nwant %v", ops, got, wantErr)
	}
}

// TestOpLogGroupingMatchesMaps runs the differential on random op logs.
func TestOpLogGroupingMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 5_000 {
		data := make([]byte, 3*rng.Intn(40))
		rng.Read(data)
		requireGroupingMatchesMaps(t, decodeOpLog(data))
	}
}

// FuzzOpLogGrouping fuzzes the differential between the map-free pairing and
// the map-based oracle.
func FuzzOpLogGrouping(f *testing.F) {
	f.Add([]byte{})
	// p1 invokes seq 1 on key 0 and returns it; p2 invokes seq 1 on key 1.
	f.Add([]byte{0x00, 0x09, 0x02, 0x11, 0x09, 0x01, 0x04, 0x11, 0x01})
	// A Return without an Invoke, then the Invoke, then two Returns.
	f.Add([]byte{0x11, 0x02, 0x05, 0x01, 0x02, 0x04, 0x11, 0x02, 0x07, 0x12, 0x02, 0x09})
	// p1 invokes seq 3 twice on different keys; the Return goes to the latest.
	f.Add([]byte{0x00, 0x03, 0x06, 0x01, 0x1b, 0x08, 0x13, 0x03, 0x0b})
	f.Fuzz(func(t *testing.T, data []byte) {
		requireGroupingMatchesMaps(t, decodeOpLog(data))
	})
}
