package dist

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// FailurePattern is the failure pattern F of a run: which processes crash
// and when (Section 2.1 of the paper). A process is alive at t iff t is
// strictly before its crash time; a process with crash time 0 never takes a
// step ("initially dead").
//
// A crashed process may additionally *recover* at a later time (RecoverAt):
// it is down during [crash, recover) and alive again from the recovery time
// on, with its volatile state lost (the simulator resets its automaton).
// Recovery restores liveness, not correctness: a process that ever crashes
// stays in Faulty()/outside Correct(), matching the paper's crash-stop
// notion of correct(F) — recovered processes rejoin as untrusted learners.
//
// Patterns are built once (NewFailurePattern + CrashAt + RecoverAt) and then
// only read: every CrashAt and RecoverAt rebuilds the sorted transitions and
// the cumulative down set per distinct transition time, so every read —
// AliveAt, Transitions, Correct — is pure and allocation-free, and one
// pattern may be read by any number of goroutines at once. Setup must not
// overlap reads.
type FailurePattern struct {
	n      int
	all    ProcSet            // FullSet(n), cached: All() sits on per-step paths
	crash  [MaxProcs + 1]Time // indexed by ProcID; NoCrash if correct
	recov  [MaxProcs + 1]Time // indexed by ProcID; NoCrash if never recovers
	faulty ProcSet
	recset ProcSet // processes with a recovery scheduled

	trans []Transition // in the order a run applies them (see Transitions)
	downs []downStep   // one per distinct transition time, increasing
}

// Transition is one change of F: process P crashes at time T, or recovers
// at T when Recover is set.
type Transition struct {
	T       Time
	P       ProcID
	Recover bool
}

type downStep struct {
	t    Time
	down ProcSet // every process with crash ≤ t < recover
}

// NewFailurePattern returns the failure-free pattern over n processes
// (1 ≤ n ≤ MaxProcs; it panics otherwise — system size is test/bench setup,
// not runtime input).
func NewFailurePattern(n int) *FailurePattern {
	if n < 1 || n > MaxProcs {
		panic(fmt.Sprintf("dist: system size %d outside 1..%d", n, MaxProcs))
	}
	f := &FailurePattern{n: n, all: FullSet(n)}
	for p := 1; p <= n; p++ {
		f.crash[p] = NoCrash
		f.recov[p] = NoCrash
	}
	return f
}

// CrashPattern returns the pattern over n processes in which exactly the
// given processes are crashed from the very beginning (time 0): they never
// take a step.
func CrashPattern(n int, crashed ...ProcID) *FailurePattern {
	f := NewFailurePattern(n)
	for _, p := range crashed {
		f.CrashAt(p, 0)
	}
	return f
}

// N returns the system size n.
func (f *FailurePattern) N() int { return f.n }

// All returns Π, the set of all n processes.
func (f *FailurePattern) All() ProcSet { return f.all }

// CrashAt records that p crashes at time t (the process takes no step at or
// after t). Negative times are clamped to 0; calling it again for the same
// process overwrites the earlier time, and CrashAt(p, NoCrash) makes p
// correct again.
func (f *FailurePattern) CrashAt(p ProcID, t Time) {
	if p < 1 || int(p) > f.n {
		panic(fmt.Sprintf("dist: CrashAt(p%d) outside 1..%d", int(p), f.n))
	}
	if t < 0 {
		t = 0
	}
	if t != NoCrash && f.recov[p] != NoCrash && f.recov[p] <= t {
		panic(fmt.Sprintf("dist: CrashAt(p%d, %d) at or after its recovery time %d", int(p), int64(t), int64(f.recov[p])))
	}
	f.crash[p] = t
	if t == NoCrash {
		f.faulty = f.faulty.Remove(p)
		f.recov[p] = NoCrash // un-crashing discards any scheduled recovery
		f.recset = f.recset.Remove(p)
	} else {
		f.faulty = f.faulty.Add(p)
	}
	f.rebuild()
}

// RecoverAt records that p, which must already have a crash time, recovers
// at time t > CrashTime(p): it is down during [crash, t) and takes steps
// again from t on, with volatile state lost. The process remains faulty
// (outside Correct()) — recovery restores liveness, not correctness.
// RecoverAt(p, NoCrash) cancels a scheduled recovery.
func (f *FailurePattern) RecoverAt(p ProcID, t Time) {
	if p < 1 || int(p) > f.n {
		panic(fmt.Sprintf("dist: RecoverAt(p%d) outside 1..%d", int(p), f.n))
	}
	if t == NoCrash {
		f.recov[p] = NoCrash
		f.recset = f.recset.Remove(p)
		f.rebuild()
		return
	}
	if f.crash[p] == NoCrash {
		panic(fmt.Sprintf("dist: RecoverAt(p%d, %d) but p%d never crashes", int(p), int64(t), int(p)))
	}
	if t <= f.crash[p] {
		panic(fmt.Sprintf("dist: RecoverAt(p%d, %d) not after its crash time %d", int(p), int64(t), int64(f.crash[p])))
	}
	f.recov[p] = t
	f.recset = f.recset.Add(p)
	f.rebuild()
}

// RecoverTime returns p's recovery time, or NoCrash if p never recovers.
func (f *FailurePattern) RecoverTime(p ProcID) Time {
	if p < 1 || int(p) > f.n {
		return NoCrash
	}
	return f.recov[p]
}

// HasRecoveries reports whether any process recovers in F.
func (f *FailurePattern) HasRecoveries() bool { return !f.recset.IsEmpty() }

// Recovering returns the set of processes with a scheduled recovery.
func (f *FailurePattern) Recovering() ProcSet { return f.recset }

// CrashTime returns p's crash time, or NoCrash if p is correct.
func (f *FailurePattern) CrashTime(p ProcID) Time {
	if p < 1 || int(p) > f.n {
		return NoCrash
	}
	return f.crash[p]
}

// Alive reports whether p takes steps at time t: before its crash time, or
// at/after its recovery time if it has one (down during [crash, recover)).
func (f *FailurePattern) Alive(p ProcID, t Time) bool {
	if p < 1 || int(p) > f.n {
		return false
	}
	return t < f.crash[p] || t >= f.recov[p]
}

// IsCorrect reports whether p never crashes in F.
func (f *FailurePattern) IsCorrect(p ProcID) bool {
	return int(p) >= 1 && int(p) <= f.n && !f.faulty.Contains(p)
}

// Correct returns correct(F), the set of processes that never crash.
func (f *FailurePattern) Correct() ProcSet { return f.All().Minus(f.faulty) }

// InEnvironment reports whether F belongs to the environment of the paper:
// at least one process is correct (a pattern crashing everybody is outside
// every environment considered).
func (f *FailurePattern) InEnvironment() bool { return !f.Correct().IsEmpty() }

// Faulty returns Π \ correct(F).
func (f *FailurePattern) Faulty() ProcSet { return f.faulty }

// AliveAt returns Π \ F(t), the processes taking steps at time t: a binary
// search over at most 2·MaxProcs cached down sets.
func (f *FailurePattern) AliveAt(t Time) ProcSet {
	ds := f.downs
	// Find the last step with ds.t ≤ t.
	lo, hi := 0, len(ds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ds[mid].t <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return f.All()
	}
	return f.All().Minus(ds[lo-1].down)
}

// Transitions returns F's crashes and recoveries in the order a run applies
// them: by time, crashes before recoveries at one time, then by process.
// The slice is F's own and must not be modified.
func (f *FailurePattern) Transitions() []Transition { return f.trans }

// rebuild sorts the transitions and builds the cumulative down set per
// distinct transition time. Both are new slices, so a slice an earlier read
// handed out keeps its contents.
func (f *FailurePattern) rebuild() {
	trans := make([]Transition, 0, f.faulty.Len()+f.recset.Len())
	f.faulty.ForEach(func(p ProcID) {
		trans = append(trans, Transition{T: f.crash[p], P: p})
		if f.recov[p] != NoCrash {
			trans = append(trans, Transition{T: f.recov[p], P: p, Recover: true})
		}
	})
	slices.SortFunc(trans, func(a, b Transition) int {
		switch {
		case a.T != b.T:
			return cmp.Compare(a.T, b.T)
		case a.Recover != b.Recover:
			if a.Recover {
				return 1
			}
			return -1
		}
		return cmp.Compare(a.P, b.P)
	})
	downs := make([]downStep, 0, len(trans))
	var down ProcSet
	for _, x := range trans {
		if x.Recover {
			down = down.Remove(x.P)
		} else {
			down = down.Add(x.P)
		}
		if k := len(downs); k > 0 && downs[k-1].t == x.T {
			downs[k-1].down = down
		} else {
			downs = append(downs, downStep{t: x.T, down: down})
		}
	}
	f.trans, f.downs = trans, downs
}

// String renders the pattern as n and its crash/recovery schedule.
func (f *FailurePattern) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "F(n=%d", f.n)
	f.faulty.ForEach(func(p ProcID) {
		fmt.Fprintf(&b, " p%d@%d", int(p), int64(f.crash[p]))
		if f.recov[p] != NoCrash {
			fmt.Fprintf(&b, "r%d", int64(f.recov[p]))
		}
	})
	b.WriteByte(')')
	return b.String()
}
