package register

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
)

// The Proposition 1 S-register is the store with one key: these tests run
// StoreConfig{Keys: 1, Window: 1} and read the register's history as key 0.
var oneRegister = StoreConfig{Keys: 1, Window: 1}

// regScripts builds single-register scripts, one string per process from
// p1 on: 'w' writes and 'r' reads. p's i-th write writes p*1000+i, so every
// write value is unique and the linearizability check is exact.
func regScripts(n int, kinds ...string) [][]KeyedOp {
	scripts := make([][]KeyedOp, n)
	for pi, ks := range kinds {
		writes := 0
		for _, k := range ks {
			op := KeyedOp{Kind: ReadOp}
			if k == 'w' {
				writes++
				op = KeyedOp{Kind: WriteOp, Arg: Value((pi+1)*1000 + writes)}
			}
			scripts[pi] = append(scripts[pi], op)
		}
	}
	return scripts
}

// runRegister runs the scripts on the one-key store under a Σ_S oracle
// stabilizing at stab, requires every correct client to finish and the
// history to linearize, and returns the register's history.
func runRegister(t *testing.T, f *dist.FailurePattern, s dist.ProcSet, scripts [][]KeyedOp, stab dist.Time, seed int64) []OpRecord {
	t.Helper()
	res := runStore(t, f, s, oneRegister, scripts, stab, seed)
	if err := VerifyStoreRunReach(res, f.Correct(), nil); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return KeyedOps(res.Ops)[0]
}

// lastRead returns p's last completed read of the history.
func lastRead(t *testing.T, ops []OpRecord, p dist.ProcID) Value {
	t.Helper()
	for i := len(ops) - 1; i >= 0; i-- {
		if o := ops[i]; o.Proc == p && o.Kind == ReadOp && o.Complete {
			return o.Ret
		}
	}
	t.Fatalf("p%d completed no read: %v", int(p), ops)
	return 0
}

func TestABDSequentialWriteRead(t *testing.T) {
	const n = 4
	f := dist.NewFailurePattern(n)
	scripts := make([][]KeyedOp, n)
	scripts[0] = []KeyedOp{{Kind: WriteOp, Arg: 42}, {Kind: ReadOp}}
	ops := runRegister(t, f, dist.NewProcSet(1, 2), scripts, 10, 1)
	if got := lastRead(t, ops, 1); len(ops) != 2 || got != 42 {
		t.Fatalf("read %d of %v, want 42", int64(got), ops)
	}
}

func TestABDReadSeesOtherWriter(t *testing.T) {
	const n = 5
	f := dist.NewFailurePattern(n)
	ops := runRegister(t, f, dist.NewProcSet(1, 2, 3), regScripts(n, "w", "", "rrr"), 10, 3)
	// Real-time order is enforced by the linearizability check; here the
	// last read must also return one of the two values the register held.
	if got := lastRead(t, ops, 3); got != 1001 && got != 0 {
		t.Fatalf("read %d, want 0 or 1001", int64(got))
	}
}

func TestABDConcurrentWritersLinearizable(t *testing.T) {
	const n = 5
	f := dist.NewFailurePattern(n)
	scripts := regScripts(n, "wrwr", "wwrr", "rwrw")
	for seed := int64(0); seed < 25; seed++ {
		runRegister(t, f, dist.NewProcSet(1, 2, 3), scripts, 10, seed)
	}
}

func TestABDWithReplicaCrashes(t *testing.T) {
	// Replicas outside S crash mid-run; a majority stays alive and Σ_S
	// stabilizes to the correct set, so clients keep terminating.
	const n = 6
	scripts := regScripts(n, "wrwr", "rwr")
	for seed := int64(0); seed < 15; seed++ {
		f := dist.NewFailurePattern(n)
		f.CrashAt(5, dist.Time(20+seed*3))
		f.CrashAt(6, dist.Time(5+seed*5))
		runRegister(t, f, dist.NewProcSet(1, 2), scripts, 200, seed)
	}
}

func TestABDClientCrashMidOperation(t *testing.T) {
	// A client crashes while operating; the other client must still
	// terminate and the surviving history must stay linearizable.
	const n = 5
	scripts := regScripts(n, "www", "rrr")
	for seed := int64(0); seed < 15; seed++ {
		f := dist.NewFailurePattern(n)
		f.CrashAt(1, dist.Time(10+seed*2))
		runRegister(t, f, dist.NewProcSet(1, 2), scripts, 150, seed)
	}
}

func TestProgramRejectsScriptOutsideS(t *testing.T) {
	// The S-register access restriction is a construction-time error: a
	// script attached to a process outside S would otherwise be silently
	// discarded at run time, making the experiment lie about its workload.
	s := dist.NewProcSet(1, 2)
	scripts := make([][]KeyedOp, 4)
	scripts[3] = []KeyedOp{{Key: 0, Kind: WriteOp, Arg: 9}} // p4 ∉ S
	if _, err := StoreProgram(4, s, oneRegister, scripts); err == nil {
		t.Fatal("StoreProgram accepted a script at p4 outside S={p1,p2}")
	}
	scripts[3] = nil
	if _, err := StoreProgram(4, s, oneRegister, scripts); err != nil {
		t.Fatalf("valid scripts rejected: %v", err)
	}
}

func TestABDNonMembersNeverOperate(t *testing.T) {
	// The runtime side of the access restriction: a node built directly
	// with newStoreNode (bypassing StoreProgram's construction-time guard)
	// still never operates at a process outside S.
	const n = 4
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2)
	m, err := oneRegister.ShardMap(n)
	if err != nil {
		t.Fatal(err)
	}
	prog := func(p dist.ProcID, nn int) sim.Automaton {
		var script []KeyedOp
		if p == 4 { // p4 ∉ S
			script = []KeyedOp{{Kind: WriteOp, Arg: 9}}
		}
		return newStoreNode(p, nn, s, &oneRegister, m, script)
	}
	res, err := sim.Run(sim.Config{
		Pattern: f, History: fd.NewSigmaS(f, s, 10), Program: prog,
		Scheduler: sim.NewRandomScheduler(1), MaxSteps: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ops := KeyedOps(res.Ops); len(ops) != 0 {
		t.Fatalf("non-member executed operations: %v", ops)
	}
}

func TestABDOverMajoritySigmaStack(t *testing.T) {
	// Full message-passing stack: Σ_S emulated from a correct majority
	// (Section 2.2), the register on top — no oracle anywhere.
	const n = 5
	s := dist.NewProcSet(1, 3)
	scripts := regScripts(n, "wrw", "", "rwr")
	for seed := int64(0); seed < 10; seed++ {
		store, err := StoreProgram(n, s, oneRegister, scripts)
		if err != nil {
			t.Fatal(err)
		}
		f := dist.NewFailurePattern(n)
		if seed%2 == 0 {
			f.CrashAt(5, dist.Time(30)) // minority crash
		}
		res, err := sim.Run(sim.Config{
			Pattern: f,
			History: sim.HistoryFunc(func(dist.ProcID, dist.Time) any { return nil }),
			Program: func(p dist.ProcID, n int) sim.Automaton {
				return sim.NewStack(fd.NewMajoritySigma(p, n, s), store(p, n))
			},
			Scheduler: sim.NewRandomScheduler(seed),
			MaxSteps:  60_000,
			StopWhen: func(sn *sim.Snapshot) bool {
				for _, p := range s.Members() {
					if !sn.Automaton(p).(*sim.Stack).Layer(1).(*StoreNode).Done() {
						return false
					}
				}
				return true
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ops := KeyedOps(res.Ops)[0]
		if res.Reason != sim.ReasonStopCond || len(ops) != 6 {
			t.Fatalf("seed %d: %d/6 ops, run ended: %s", seed, len(ops), res.Reason)
		}
		if err := CheckKeyedLinearizable(map[int][]OpRecord{0: ops}, 0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
