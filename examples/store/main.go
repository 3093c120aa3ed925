// Sharded keyed register store example: the key space is partitioned
// across disjoint replica groups (one register member set Σ_{S_i} per
// shard), each process only replicates the keys of its own shard, and
// clients route every operation to its shard's group — adaptive per-shard
// pipelining windows and piggybacked per-destination frames (every entry
// kind a node owes one destination in a step travels in one message). A
// seed sweep on the concurrent sweep engine crashes one shard's *entire*
// replica group mid-run and checks that only that shard's operations stall
// while every per-key history stays linearizable — and that the dead
// shard's window controller decays to 1 instead of pinning client effort.
//
// On top of the crash the network itself is adversarial: 5% of messages
// are lost, 5% duplicated, some delayed a few extra ticks, and the replica
// groups of shards 0 and 1 cannot exchange messages during [30, 90) — a
// partition that heals. Per-op retransmission with exponential backoff
// rides out the loss and the partition (parked ops resume at the heal),
// and rid-based reply dedup makes duplicate delivery harmless.
//
// The final act prices the paper's title on one adversary: a replica
// crashes and later rejoins with its volatile state lost (repopulated only
// through the ordinary write-back path), a one-way link fault blocks one
// direction while replies flow back, and the identical fault plan then
// drives Ω+Σ consensus — which pays its messages once per run, while the
// store pays a quorum round trip on every operation it serves.
//
//	go run ./examples/store
package main

import (
	"fmt"
	"log"

	"repro/internal/agreement"
	"repro/internal/consensus"
	"repro/internal/dist"
	"repro/internal/register"
	"repro/internal/sim"
)

func main() {
	const n, keys, shards = 6, 9, 3
	store := register.StoreConfig{
		Keys: keys, Shards: shards, Window: 3,
		Piggyback:      true, // one combined frame per (src, dst) per step
		AdaptiveWindow: true, // AIMD per-shard windows; dead shards decay to 1
		MaxWindow:      6,
		StallSteps:     8,
		Retransmit:     true, // re-send timed-out ops: survives loss + partitions
		RTO:            16,
	}
	shardMap, err := store.ShardMap(n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("layout: %s\n", shardMap)

	// Crash the whole replica group of shard 2 mid-run: its quorums die
	// with it, the other shards' quorums adapt and must finish.
	pattern := dist.NewFailurePattern(n)
	for _, p := range shardMap.Group(2).Members() {
		pattern.CrashAt(p, 80)
	}

	s := dist.NewProcSet(1, 2) // the store's clients
	scripts, err := register.GenerateStoreWorkload(register.StoreWorkloadConfig{
		N: n, S: s,
		Keys:         keys,
		Shards:       shards, // per-shard zipf: each shard has its own hot key
		OpsPerClient: 8,
		WriteRatio:   -1, // default mix
		Skew:         1.4,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The adversarial network: seeded loss, duplication and delay decided
	// per message as a pure function of (plan seed, run seed, message seq),
	// plus a scripted partition between the replica groups of shards 0 and
	// 1 that heals at t=90. Blocked messages park and deliver at the heal.
	faults := &sim.FaultPlan{
		Seed: 7, Loss: 0.05, Dup: 0.05, MaxDelay: 3,
		Partitions: []dist.Partition{
			{A: shardMap.Group(0), B: shardMap.Group(1), From: 30, Until: 90},
		},
	}
	fmt.Printf("faults: loss=%.2f dup=%.2f maxdelay=%d, partition %v\n",
		faults.Loss, faults.Dup, int64(faults.MaxDelay), faults.Partitions[0])

	res, err := register.StoreSweep(register.StoreSweepConfig{
		Pattern: pattern,
		S:       s,
		Store:   store,
		Scripts: scripts,
		Stab:    120,
		Seeds:   8,
		Faults:  faults,
	})
	if err != nil {
		log.Fatal(err)
	}

	avail := shardMap.Available(pattern.Correct())
	fmt.Printf("sharded store on %v, S=%v: %d runs × %d ops, availability mask %03b\n",
		pattern, s, res.Runs, register.TotalKeyedOps(scripts), avail)
	fmt.Printf("  steps: %s\n  msgs:  %s\n", res.Steps.String(), res.Msgs.String())
	fmt.Printf("  drops: %s\n  dups:  %s\n", res.Dropped.String(), res.Duplicated.String())
	if res.Failures > 0 {
		log.Fatalf("verification failed (seed %d): %v", res.FirstFailSeed, res.FirstFailErr)
	}
	fmt.Println("shard 2's loss degraded only shard 2; the healed partition parked nothing")
	fmt.Println("forever; every per-key history linearizable under loss and duplication")

	// Part two: tail latency under open-loop overload. Closed-loop clients
	// can never overload the store — a new op only starts when a window slot
	// frees up. Open-loop clients draw jittered inter-arrival gaps from a
	// seeded schedule instead; at a gap below the store's service rate the
	// queue grows and, since latency is measured from *arrival*, the
	// percentile report shows the queueing delay the closed-loop numbers
	// structurally cannot.
	overload := register.StoreConfig{
		Keys: keys, Shards: shards, Window: 3,
		Piggyback: true,
		OpenLoop:  true, ArrivalGap: 1, ArrivalJitter: true, ArrivalSeed: 5,
	}
	healthy := dist.NewFailurePattern(n) // failure-free: pure load, no crashes
	lres, err := register.StoreSweep(register.StoreSweepConfig{
		Pattern: healthy,
		S:       s,
		Store:   overload,
		Scripts: scripts,
		Stab:    20,
		Seeds:   8,
	})
	if err != nil {
		log.Fatal(err)
	}
	if lres.Failures > 0 {
		log.Fatalf("overload verification failed (seed %d): %v", lres.FirstFailSeed, lres.FirstFailErr)
	}
	fmt.Printf("\nopen-loop overload (gap=%d jittered): %d runs × %d ops\n",
		overload.EffectiveArrivalGap(), lres.Runs, register.TotalKeyedOps(scripts))
	fmt.Printf("  msgs:  %s\n", lres.Msgs.String())
	fmt.Printf("  lat:   p50=%d p99=%d p99.9=%d steps | %s\n",
		lres.Lat.Quantile(0.50), lres.Lat.Quantile(0.99), lres.Lat.Quantile(0.999), lres.Lat.String())
	fmt.Println("arrivals outpace service, so the tail is queueing delay — measured, bounded,")
	fmt.Println("and every history still linearizable")

	// Part three: one-phase fast reads vs two-phase ABD under a group crash.
	// A classic ABD read pays two rounds — query a quorum, then write the max
	// timestamp back to a quorum. With FastReads a read whose phase-1 quorum
	// is unanimous (or whose max timestamp is already confirmed at a quorum,
	// tracked per key and piggybacked on the existing reply entries) is
	// provably already at a quorum, so the write-back is elided and the read
	// finishes in one round trip. The same group crash as part one shows the
	// degradation story is untouched: only the dead shard's ops stall, every
	// per-key history stays linearizable, and the fallback quietly covers
	// reads that race a concurrent write's partially-stored timestamp.
	readHeavy, err := register.GenerateStoreWorkload(register.StoreWorkloadConfig{
		N: n, S: s,
		Keys:         keys,
		Shards:       shards,
		OpsPerClient: 12,
		WriteRatio:   0.1, // read-heavy: the regime fast reads are built for
		Skew:         1.4,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfast vs two-phase reads (write ratio 0.1, shard 2's group crashed at t=80):")
	for _, fast := range []bool{false, true} {
		cfg := register.StoreConfig{
			Keys: keys, Shards: shards, Window: 3,
			Piggyback: true, FastReads: fast,
		}
		fres, err := register.StoreSweep(register.StoreSweepConfig{
			Pattern: pattern, // part one's crash: shard 2's whole group dies
			S:       s,
			Store:   cfg,
			Scripts: readHeavy,
			Stab:    120,
			Seeds:   8,
		})
		if err != nil {
			log.Fatal(err)
		}
		if fres.Failures > 0 {
			log.Fatalf("fastread=%v verification failed (seed %d): %v", fast, fres.FirstFailSeed, fres.FirstFailErr)
		}
		mode := "two-phase"
		if fast {
			mode = "fastread "
		}
		fmt.Printf("  %s msgs: %-28s lat p50=%d p99=%d steps", mode, fres.Msgs.String(), fres.Lat.Quantile(0.50), fres.Lat.Quantile(0.99))
		if fast {
			fmt.Printf(" | %d one-phase reads, %d fallbacks", fres.FastReads.Sum, fres.Fallbacks.Sum)
		}
		fmt.Println()
	}
	fmt.Println("the unanimous-quorum reads skipped their write-back round; the crash still")
	fmt.Println("degraded only its own shard, and every history stayed linearizable")

	// Part four: crash-recovery with volatile-state loss, a one-way link
	// fault, and the paper's title priced on one adversary. Replica p6
	// crashes at t=40 and rejoins at t=120 with its replica state wiped —
	// recovery restores liveness, never correctness (an ever-crashed process
	// stays outside Correct(), so quorums keep intersecting at the
	// never-crashed members) — while shard 0's group cannot reach shard 1's
	// during [30, 150) even though replies flow back the other way. The
	// recovered replica relearns only through the ordinary write-back /
	// phase-2 path. Then the SAME fault plan drives Ω+Σ consensus: agreeing
	// is a one-shot cost per run, while the store pays a quorum round trip
	// on every single operation — a bill that grows with the workload where
	// the consensus bill is flat. Sharing is harder than agreeing, priced
	// on the identical network.
	recPattern := dist.NewFailurePattern(n)
	recPattern.CrashAt(6, 40)
	recPattern.RecoverAt(6, 120)
	oneWay := &sim.FaultPlan{
		Seed: 7, Loss: 0.05, Dup: 0.05, MaxDelay: 2,
		Partitions: []dist.Partition{
			{A: shardMap.Group(0), B: shardMap.Group(1), From: 30, Until: 150, OneWay: true},
		},
	}
	recCfg := register.StoreConfig{
		Keys: keys, Shards: shards, Window: 3,
		Piggyback: true, Retransmit: true, RTO: 16,
	}
	rres, err := register.StoreSweep(register.StoreSweepConfig{
		Pattern: recPattern,
		S:       s,
		Store:   recCfg,
		Scripts: scripts,
		Stab:    120,
		Seeds:   8,
		Faults:  oneWay,
	})
	if err != nil {
		log.Fatal(err)
	}
	if rres.Failures > 0 {
		log.Fatalf("recovery verification failed (seed %d): %v", rres.FirstFailSeed, rres.FirstFailErr)
	}
	fmt.Printf("\ncrash-recovery + one-way cut on %v, partition %v:\n", recPattern, oneWay.Partitions[0])
	fmt.Printf("  store msgs: %s\n", rres.Msgs.String())

	cres, err := consensus.Sweep(consensus.SweepConfig{
		Pattern:   recPattern,
		Proposals: agreement.DistinctProposals(n),
		Faults:    oneWay,
		Seeds:     8,
	})
	if err != nil {
		log.Fatal(err)
	}
	if cres.Failures > 0 {
		log.Fatalf("consensus verification failed (seed %d): %v", cres.FirstFailSeed, cres.FirstFailErr)
	}
	fmt.Printf("  consensus msgs: %s\n", cres.Msgs.String())
	fmt.Println("p6 rejoined with its volatile state lost and relearned through write-backs;")
	fmt.Println("the recovered process also relearned the consensus decision from the decide")
	fmt.Println("re-broadcast — and the same adversary prices the title: agreeing paid its")
	fmt.Println("messages once, while the store pays a quorum round trip per op, forever")
}
