package register

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"

	"repro/internal/agreement"
	"repro/internal/consensus"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// pooledShapes are the runs of TestStorePooledBuffersInvisible, by name:
// the n=128 faults sweep, an n=5 fast-read sweep under loss and
// duplication, an n=5 consensus sweep under loss, duplication, delay and a
// crash-recovery, and one traced runner of a store shape (n=8, every
// process a client, piggybacked). Each returns its aggregate rendered
// exactly.
var pooledShapes = map[string]func(t testing.TB) string{
	"n128": func(t testing.TB) string {
		cfg := faultsN128Config(t)
		cfg.Seeds = 2
		return pooledSweep(t, cfg)
	},
	"n5": func(t testing.TB) string { return pooledSweep(t, fastReadConfig(t, 5)) },
	"consensus": func(t testing.TB) string {
		f := dist.NewFailurePattern(5)
		f.CrashAt(3, 40)
		f.RecoverAt(3, 200)
		res, err := consensus.Sweep(consensus.SweepConfig{
			Pattern:   f,
			Proposals: []agreement.Value{10, 20, 30, 40, 50},
			Faults:    &sim.FaultPlan{Seed: 5, Loss: 0.05, Dup: 0.05, MaxDelay: 3},
			Seeds:     16,
			Workers:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures != 0 || res.Dropped.Sum == 0 || res.Duplicated.Sum == 0 {
			t.Fatalf("consensus sweep: %s", res)
		}
		return fmt.Sprintf("decided=%d steps=%v msgs=%v dropped=%v duplicated=%v", res.Decided, res.Steps, res.Msgs, res.Dropped, res.Duplicated)
	},
	"n8-traced": func(t testing.TB) string {
		const n = 8
		s := dist.RangeSet(1, n)
		store := StoreConfig{Keys: 4, Window: 2, Piggyback: true, Retransmit: true, FastReads: true}
		scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{N: n, S: s, Keys: store.Keys, OpsPerClient: 6, WriteRatio: 0.5, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		simCfg, err := StoreSweepConfig{Pattern: dist.NewFailurePattern(n), S: s, Store: store, Scripts: scripts}.SimConfig()
		if err != nil {
			t.Fatal(err)
		}
		simCfg.DisableTrace = false
		r, err := sim.NewRunner(simCfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Release()
		res, err := r.Reset(3).Run()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("steps=%d msgs=%d reason=%v wire=%#x", res.Steps, res.MessagesSent, res.Reason, wireHash(res))
	},
}

// fastReadConfig is a small fast-read store sweep on n processes, three
// of them clients, whose runs drop and duplicate pooled frames.
func fastReadConfig(t testing.TB, n int) StoreSweepConfig {
	t.Helper()
	s := dist.NewProcSet(1, 2, 3)
	store := StoreConfig{Keys: 8, Shards: 2, Window: 4, Retransmit: true, RTO: 16, FastReads: true}
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{N: n, S: s, Keys: store.Keys, Shards: store.Shards, OpsPerClient: 8, WriteRatio: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return StoreSweepConfig{
		Pattern: dist.NewFailurePattern(n), S: s, Store: store, Scripts: scripts,
		Faults: &sim.FaultPlan{Seed: 3, Loss: 0.05, Dup: 0.05, MaxDelay: 2},
		Seeds:  12, Workers: 1,
	}
}

// pooledSweep runs cfg's sweep, requires every run to verify, and renders
// its aggregates.
func pooledSweep(t testing.TB, cfg StoreSweepConfig) string {
	t.Helper()
	res, err := StoreSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("sweep failed: %s", res)
	}
	return aggregates(res)
}

// aggregates renders exactly every aggregate of a store sweep that a
// pooled buffer could reach.
func aggregates(res *sweep.Result) string {
	return fmt.Sprintf("failures=%d steps=%v msgs=%v lat=%v clean=%v faulted=%v fast=%v fallbacks=%v",
		res.Failures, res.Steps, res.Msgs, res.Lat, res.LatClean, res.LatFaulted, res.FastReads, res.Fallbacks)
}

// pooledChildEnv names the one shape a child process runs first (see
// TestStorePooledBuffersInvisible).
const pooledChildEnv = "REGISTER_POOLED_CHILD"

// TestStorePooledBuffersInvisible holds the package-level pool of released
// runners' inbox sets (sim), with the payload pools they carry, to its
// contract: a run on reused buffers is the run on fresh ones. Each shape
// runs first in a fresh process, where every pool is empty; then this
// process runs them back to back, n128, n5, the consensus sweep (on a set
// that carried store frames), the traced n8 runner and n128 again, each on
// what the one before left, and every aggregate must match the fresh one
// exactly.
func TestStorePooledBuffersInvisible(t *testing.T) {
	if name := os.Getenv(pooledChildEnv); name != "" {
		fmt.Printf("pooled-result %s\n", pooledShapes[name](t))
		return
	}
	if testing.Short() {
		t.Skip("starts a process per shape")
	}
	fresh := map[string]string{}
	for name := range pooledShapes {
		cmd := exec.Command(os.Args[0], "-test.run=^TestStorePooledBuffersInvisible$", "-test.count=1")
		cmd.Env = append(os.Environ(), pooledChildEnv+"="+name)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s in a fresh process: %v\n%s", name, err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if v, ok := strings.CutPrefix(line, "pooled-result "); ok {
				fresh[name] = v
			}
		}
		if fresh[name] == "" {
			t.Fatalf("%s in a fresh process printed no result:\n%s", name, out)
		}
	}
	for i, name := range []string{"n128", "n5", "consensus", "n8-traced", "n128"} {
		if got := pooledShapes[name](t); got != fresh[name] {
			t.Errorf("run %d, %s on pooled buffers:\n  %s\nwant, as in a fresh process:\n  %s", i, name, got, fresh[name])
		}
	}
}

// TestStorePooledSweepsConcurrent runs sweeps of two shapes at once, two
// workers each, so several runners take and give back inbox sets and frame
// pools concurrently; under -race it fails on any buffer two runners share.
// Every sweep must match its shape's lone run.
func TestStorePooledSweepsConcurrent(t *testing.T) {
	cfgs := []StoreSweepConfig{fastReadConfig(t, 5), fastReadConfig(t, 8)}
	want := make([]string, len(cfgs))
	for i := range cfgs {
		cfgs[i].Workers = 2
		want[i] = pooledSweep(t, cfgs[i])
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(cfgs)
			for range 3 {
				res, err := StoreSweep(cfgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := aggregates(res); got != want[i] {
					t.Errorf("shape %d, concurrent sweep:\n  %s\nwant:\n  %s", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStorePooledSweepAllocBudget pins what a StoreSweep of one n=128
// faults seed allocates once an earlier sweep has left its inbox set, and
// the frame pool in it, behind: the runner's inboxes and frames are not
// regrown. Without the pools a call allocated about 505 KB; with them it
// is about 190 KB, almost all of it the 128 new nodes.
func TestStorePooledSweepAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("times a benchmark loop; the race detector changes allocation")
	}
	cfg := faultsN128Config(t)
	pooledSweep(t, cfg)
	res := testing.Benchmark(func(b *testing.B) {
		for range b.N {
			if _, err := StoreSweep(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	const budget = 250_000 // ≈190 KB on amd64
	if got := res.AllocedBytesPerOp(); got > budget {
		t.Fatalf("a second n=128 store sweep allocates %d B, want ≤ %d", got, budget)
	}
}
