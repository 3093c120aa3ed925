package register

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
)

// TestStoreStopCursorMatchesScan runs sampled n=128 sweeps with a stop
// condition that asks both the stop cursor StoreSweep installs and the
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
			n := cfg.Pattern.N()
			m, err := cfg.Store.ShardMap(n)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := StoreProgram(n, cfg.S, cfg.Store, cfg.Scripts)
			if err != nil {
				t.Fatal(err)
			}
			maxSteps := cfg.EffectiveMaxSteps()
			correct := cfg.Pattern.Correct()
			clients := cfg.S.Intersect(correct)
			avail := m.Available(correct)
			masks := StoreReach(m, cfg.Faults, correct, clients, dist.Time(maxSteps))
			cur := newStoreStopCursor(clients, avail, masks)
			var notDone int64
			r, err := sim.NewRunner(sim.Config{
				Pattern: cfg.Pattern, History: fd.NewSigmaS(cfg.Pattern, cfg.S, cfg.Stab),
				Program: prog, MaxSteps: maxSteps, Faults: cfg.Faults, OmitMessages: true,
				StopWhen: func(sn *sim.Snapshot) bool {
					got, want := cur.done(sn), storeClientsDoneMasked(sn, clients, avail, masks)
					if got != want {
						t.Fatalf("t=%d: the cursor says done=%v, the scan %v", int64(sn.Now()), got, want)
					}
					if !want {
						notDone++
					}
					return want
				},
			})
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
