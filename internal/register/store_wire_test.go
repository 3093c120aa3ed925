package register

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/trace"
)

// wireStream renders a traced run's sends canonically: time, endpoints and
// sequence number, then every entry the payload carries, tagged by kind —
// Q (query request), S (store request), QR (query reply), SR (store ack) —
// in the order of the payload's fields. Entries are found by reflection on
// the payload's slice fields, so the rendering depends only on what travels
// on the wire, never on the Go type that carries it. Traced runs never
// recycle pooled payloads, so the recorded pointers still hold the sent
// contents.
func wireStream(res *sim.Result) []string {
	var out []string
	for _, ev := range res.Trace.Events() {
		if ev.Kind != trace.SendKind {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "t=%d p%d->p%d seq=%d", int64(ev.T), int(ev.P), int(ev.To), ev.Seq)
		writeWireEntries(&b, ev.Payload)
		out = append(out, b.String())
	}
	return out
}

// writeWireEntries renders every entry a payload carries, as wireStream
// describes.
func writeWireEntries(b *strings.Builder, payload any) {
	v := reflect.ValueOf(payload).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Slice {
			continue
		}
		for j := 0; j < f.Len(); j++ {
			switch x := f.Index(j).Interface().(type) {
			case queryEntry:
				fmt.Fprintf(b, " Q(%d,%d,%s)", x.Key, x.RID, wireTS(x.CTS))
			case storeEntry:
				fmt.Fprintf(b, " S(%d,%d,%s,%d)", x.Key, x.RID, wireTS(x.TS), int64(x.V))
			case queryRepEntry:
				fmt.Fprintf(b, " QR(%d,%d,%s,%d,%s)", x.Key, x.RID, wireTS(x.TS), int64(x.V), wireTS(x.CTS))
			case storeRepEntry:
				fmt.Fprintf(b, " SR(%d,%d)", x.Key, x.RID)
			default:
				panic(fmt.Sprintf("wireStream: unknown wire entry type %T", x))
			}
		}
	}
}

func wireTS(ts Timestamp) string { return fmt.Sprintf("%d.%d", ts.Seq, int(ts.PID)) }

// wireHash is the FNV-64a hash of a run's canonical wire stream.
func wireHash(res *sim.Result) uint64 {
	h := fnv.New64a()
	for _, line := range wireStream(res) {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// TestStoreWireGolden pins the store's wire contract — which sends happen,
// in which order (order sets the message seq, which FaultPlan decisions
// hash), and which entries each carries — to canonical-stream hashes over
// four scheduler seeds per tier. The tiers cover the non-piggybacked paths
// the FastReads-off goldens (TestStoreFastReadsOffByteIdentical: batched,
// piggyback+retransmit, the piggyback+open-loop full stack) leave open:
// per-shard request snapshots under open-loop arrivals and retransmission,
// and the faulted adaptive fast-read store the n=128 benchmark runs, here
// at n=5.
func TestStoreWireGolden(t *testing.T) {
	const n = 5
	s := dist.NewProcSet(1, 2)
	wl := func(keys, shards int) [][]KeyedOp {
		scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
			N: n, S: s, Keys: keys, Shards: shards, OpsPerClient: 10, WriteRatio: -1, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return scripts
	}
	crashRecover := dist.NewFailurePattern(n)
	crashRecover.CrashAt(5, 50)
	crashRecover.RecoverAt(5, 200)
	for _, tc := range []struct {
		name    string
		cfg     StoreConfig
		pat     *dist.FailurePattern
		fp      *sim.FaultPlan
		scripts [][]KeyedOp
		golden  [4]uint64
	}{
		{"batched+openloop+retransmit", StoreConfig{
			Keys: 12, Shards: 4, Window: 8,
			OpenLoop: true, ArrivalGap: 3, ArrivalJitter: true,
			Retransmit: true, RTO: 16,
		}, nil, nil, wl(12, 4),
			[4]uint64{0x998912bac845e85c, 0xeb62a5e91f9f147e, 0xe8c5800c21dc8edc, 0xbd458f931f9c48f2}},
		{"batched+adaptive+retransmit+fastreads+faults", StoreConfig{
			Keys: 8, Shards: 2, Window: 2,
			AdaptiveWindow: true, MaxWindow: 6, StallSteps: 8,
			Retransmit: true, RTO: 24, MaxRTO: 96,
			FastReads: true,
		}, crashRecover, &sim.FaultPlan{
			Seed: 7, Loss: 0.03, Dup: 0.03, MaxDelay: 3,
			Partitions: []dist.Partition{{A: dist.NewProcSet(1, 3, 5), B: dist.NewProcSet(2, 4), From: 60, Until: 300}},
		}, wl(8, 2),
			[4]uint64{0x925ea1c7df5d299f, 0xa8e7f24405da1e3d, 0x96c5bf80b0c4ec25, 0xa8b9ec6e6be7ba9d}},
	} {
		pat := tc.pat
		if pat == nil {
			pat = dist.NewFailurePattern(n)
		}
		for seed := int64(0); seed < 4; seed++ {
			var res *sim.Result
			var masks []ShardSet
			if tc.fp == nil {
				res = runStore(t, pat, s, tc.cfg, tc.scripts, 10, seed)
			} else {
				res, masks = runStoreFaulted(t, pat, s, tc.cfg, tc.scripts, tc.fp, 10, seed)
			}
			if err := VerifyStoreRunReach(res, pat.Correct(), masks); err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			if got := wireHash(res); got != tc.golden[seed] {
				t.Errorf("%s seed %d: wire stream hash 0x%016x, want the golden 0x%016x — the store's sends, their order or their entries changed",
					tc.name, seed, got, tc.golden[seed])
			}
		}
	}
}
