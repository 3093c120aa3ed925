package register

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// storeClientsDoneMasked is the stateless reference for the stop cursor:
// every client finished its work on the available shards it can reach
// (masks from StoreReach; nil = all), rescanned from the first client on
// every call.
func storeClientsDoneMasked(sn *sim.Snapshot, clients dist.ProcSet, avail ShardSet, masks []ShardSet) bool {
	return clients.AllSatisfy(func(p dist.ProcID) bool {
		eff := avail
		if masks != nil {
			eff = eff.Intersect(masks[p])
		}
		node, ok := sn.Automaton(p).(*StoreNode)
		return ok && node.DoneOn(eff)
	})
}

// TestStoreStopCursorMatchesScan runs sampled n=128 sweeps with a stop
// condition that asks both the stop cursor SimConfig installs and the
// stateless client scan at every tick, and requires the same answer every
// time — across crash plus recovery, a healing partition (per-client
// reachability masks) and open-loop arrivals, with several seeds on one
// runner so the cursor's rewind at tick 0 is exercised too.
func TestStoreStopCursorMatchesScan(t *testing.T) {
	if testing.Short() {
		t.Skip("n=128 runs are a long test")
	}
	recovery := scaleSweepConfig(t, 0)
	f := dist.NewFailurePattern(128)
	f.CrashAt(5, 50) // a client: it leaves the clients the condition waits for
	f.RecoverAt(5, 200)
	f.CrashAt(40, 50)
	f.RecoverAt(40, 200)
	recovery.Pattern = f
	recovery.Faults = &sim.FaultPlan{Seed: 7, Loss: 0.03, Dup: 0.03, MaxDelay: 3}

	openLoop := scaleSweepConfig(t, 0)
	openLoop.Store.OpenLoop = true
	openLoop.Store.ArrivalGap = 4
	openLoop.Store.ArrivalJitter = true

	for _, tc := range []struct {
		name string
		cfg  StoreSweepConfig
	}{
		{"crash+recovery", recovery},
		{"healing-partition", scaleSweepConfig(t, 0)},
		{"open-loop", openLoop},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			m, err := cfg.Store.ShardMap(cfg.Pattern.N())
			if err != nil {
				t.Fatal(err)
			}
			correct := cfg.Pattern.Correct()
			clients := cfg.S.Intersect(correct)
			avail := m.Available(correct)
			masks := StoreReach(m, cfg.Faults, correct, clients, dist.Time(cfg.EffectiveMaxSteps()))
			simCfg, err := cfg.SimConfig()
			if err != nil {
				t.Fatal(err)
			}
			cursor := simCfg.StopWhen
			var notDone int64
			simCfg.StopWhen = func(sn *sim.Snapshot) bool {
				got, want := cursor(sn), storeClientsDoneMasked(sn, clients, avail, masks)
				if got != want {
					t.Fatalf("t=%d: the cursor says done=%v, the scan %v", int64(sn.Now()), got, want)
				}
				if !want {
					notDone++
				}
				return want
			}
			r, err := sim.NewRunner(simCfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 3; seed++ {
				res, err := r.Reset(seed).Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Reason != sim.ReasonStopCond {
					t.Fatalf("seed %d ended %s before every client finished", seed, res.Reason)
				}
				if err := VerifyStoreRunReach(res, correct, masks); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			if notDone == 0 {
				t.Fatal("the condition never held false: nothing was compared")
			}
		})
	}
}

// TestStoreSweepIsSimConfigRuns pins SimConfig as the one definition of a
// store run: StoreSweep over 4 seeds of the n=128 scenario (fast reads, a
// replica crash and recovery under loss, duplication and a healing
// partition) equals a plain loop of SimConfig's runner plus
// VerifyStoreRunReach over the same seeds: every aggregate (steps, messages,
// fault counters, latency and its clean/faulted split, fast reads and
// fallbacks) bit for bit.
func TestStoreSweepIsSimConfigRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("n=128 runs are a long test")
	}
	cfg := scaleSweepConfig(t, 4)
	f := dist.NewFailurePattern(128)
	f.CrashAt(40, 50)
	f.RecoverAt(40, 200)
	cfg.Pattern = f
	cfg.Store.FastReads = true
	got, err := StoreSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	simCfg, err := cfg.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := sweep.Result{Runs: cfg.Seeds, FirstFailSeed: -1}
	for seed := cfg.SeedStart; seed < cfg.SeedStart+cfg.Seeds; seed++ {
		res, err := r.Reset(seed).Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want.Steps.Observe(res.Steps)
		want.Msgs.Observe(res.MessagesSent)
		want.Dropped.Observe(res.MessagesDropped)
		want.Duplicated.Observe(res.MessagesDuplicated)
		var fast, fall int64
		for _, a := range res.Automata {
			node := a.(*StoreNode)
			want.Lat.Merge(node.LatencyHist())
			want.LatClean.Merge(node.CleanLatencyHist())
			want.LatFaulted.Merge(node.FaultedLatencyHist())
			fast += node.FastReads()
			fall += node.ReadFallbacks()
		}
		want.FastReads.Observe(fast)
		want.Fallbacks.Observe(fall)
	}
	if *got != want {
		t.Fatalf("the sweep aggregated\n  %+v\nthe SimConfig runs\n  %+v", *got, want)
	}
	if want.Dropped.Sum == 0 || want.LatFaulted.Count == 0 {
		t.Fatal("the faults never fired: the comparison covers only the clean path")
	}
}

// doneOnScan is the queue and pend scan that StoreNode.DoneOn's busy-shard
// set replaced, kept as its oracle.
func doneOnScan(a *StoreNode, avail ShardSet) bool {
	for sh := range a.queues {
		if avail.Has(sh) && len(a.queues[sh]) > 0 {
			return false
		}
	}
	for i := range a.pend {
		if avail.Has(a.pend[i].shard) {
			return false
		}
	}
	return true
}

// TestStoreShardSetsMatchScan runs sampled n=128 sweeps, several seeds on
// one runner, and after every tick checks both shard sets of every client
// against a scan: DoneOn (and Done) against doneOnScan for the full, the
// available and one rotating single-shard set, and the dirty-shard set
// against the non-empty request accumulators (both empty between steps,
// because every flush sends what it holds). It also checks the invariants
// that let start and adaptWindows visit only busy shards: a shard with
// outstanding ops is busy, and a shard that is not busy has a zero stall
// clock. The runs cover loss, duplication, delay, a healing partition, and
// a client and a replica that crash and recover.
func TestStoreShardSetsMatchScan(t *testing.T) {
	if testing.Short() {
		t.Skip("n=128 runs are a long test")
	}
	recovery := scaleSweepConfig(t, 0)
	f := dist.NewFailurePattern(128)
	f.CrashAt(5, 50) // a client
	f.RecoverAt(5, 200)
	f.CrashAt(40, 50) // a replica
	f.RecoverAt(40, 200)
	recovery.Pattern = f

	for _, tc := range []struct {
		name string
		cfg  StoreSweepConfig
	}{
		{"crash+recovery", recovery},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			m, err := cfg.Store.ShardMap(cfg.Pattern.N())
			if err != nil {
				t.Fatal(err)
			}
			full := FullShardSet(m.Shards())
			avail := m.Available(cfg.Pattern.Correct())
			clients := cfg.S.Members()
			simCfg, err := cfg.SimConfig()
			if err != nil {
				t.Fatal(err)
			}
			stop := simCfg.StopWhen
			var busy int
			simCfg.StopWhen = func(sn *sim.Snapshot) bool {
				now := int64(sn.Now())
				masks := []ShardSet{full, avail, NewShardSet(int(now) % m.Shards())}
				// Only members of S queue, start or send requests.
				for _, p := range clients {
					node := sn.Automaton(p).(*StoreNode)
					for _, mask := range masks {
						if got, want := node.DoneOn(mask), doneOnScan(node, mask); got != want {
							t.Fatalf("t=%d p%d: DoneOn(%v) = %v, the scan says %v", now, int(p), mask, got, want)
						}
					}
					if got, want := node.Done(), doneOnScan(node, full); got != want {
						t.Fatalf("t=%d p%d: Done() = %v, the scan says %v", now, int(p), got, want)
					}
					if !node.busy.IsEmpty() {
						busy++
					}
					for sh := 0; sh < m.Shards(); sh++ {
						if got, want := node.dirty.Has(sh), len(node.qOut[sh])+len(node.sOut[sh]) > 0; got != want {
							t.Fatalf("t=%d p%d: shard %d dirty = %v, its accumulators are non-empty = %v", now, int(p), sh, got, want)
						}
						// start and adaptWindows visit only busy shards.
						if node.load[sh] > 0 && !node.busy.Has(sh) {
							t.Fatalf("t=%d p%d: shard %d holds %d ops but is not busy", now, int(p), sh, node.load[sh])
						}
						if !node.busy.Has(sh) && node.win[sh].idle != 0 {
							t.Fatalf("t=%d p%d: idle shard %d keeps a stall clock of %d", now, int(p), sh, node.win[sh].idle)
						}
					}
				}
				return stop(sn)
			}
			r, err := sim.NewRunner(simCfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 3; seed++ {
				res, err := r.Reset(seed).Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.Reason != sim.ReasonStopCond {
					t.Fatalf("seed %d ended %s before every client finished", seed, res.Reason)
				}
			}
			if busy == 0 {
				t.Fatal("no node ever had work: nothing was compared")
			}
		})
	}
}
