package fd

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/trace"
)

func patterns5() []*dist.FailurePattern {
	return []*dist.FailurePattern{
		dist.NewFailurePattern(5),
		dist.CrashPattern(5, 5),
		dist.CrashPattern(5, 1, 2),
		dist.CrashPattern(5, 2, 3, 4, 5),
	}
}

func TestSigmaSOracleValid(t *testing.T) {
	for _, f := range patterns5() {
		for _, s := range []dist.ProcSet{dist.NewProcSet(1, 2), f.All()} {
			o := NewSigmaS(f, s, 20)
			if vs := CheckSigmaS(f, s, o, 150, 100); len(vs) != 0 {
				t.Fatalf("%v S=%v: %v", f, s, vs)
			}
		}
	}
}

// TestFailurePatternConcurrentFirstReads has eight goroutines make the
// first reads of a freshly built pattern, with a crash and a recovery, and
// of a fresh Σ_S oracle on it, all before stabilization. Reads never write,
// so the race detector stays quiet, every goroutine sees the history the
// pattern defines, and Output does not allocate.
func TestFailurePatternConcurrentFirstReads(t *testing.T) {
	const n, stab = 5, 60
	f := dist.NewFailurePattern(n)
	f.CrashAt(3, 10)
	f.RecoverAt(3, 30)
	f.CrashAt(5, 20)
	o := NewSigmaS(f, f.All(), stab)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tm := dist.Time(0); tm < stab; tm++ {
				var alive dist.ProcSet
				for p := dist.ProcID(1); p <= n; p++ {
					if f.Alive(p, tm) {
						alive = alive.Add(p)
					}
				}
				if got := f.AliveAt(tm); got != alive {
					t.Errorf("AliveAt(%d) = %v, want %v", int64(tm), got, alive)
					return
				}
				for p := dist.ProcID(1); p <= n; p++ {
					want := TrustList{Trusted: alive}
					if !alive.Contains(p) {
						want.Trusted = f.All()
					}
					if got := o.Output(p, tm); got != want {
						t.Errorf("H(p%d, %d) = %v, want %v", int(p), int64(tm), got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if a := testing.AllocsPerRun(100, func() { o.Output(1, 25) }); a != 0 {
		t.Fatalf("Output allocates %.1f times per call", a)
	}
}

func TestSigmaSOracleBottomOutsideS(t *testing.T) {
	f := dist.NewFailurePattern(4)
	o := NewSigmaS(f, dist.NewProcSet(1, 2), 0)
	out, ok := o.Output(3, 5).(TrustList)
	if !ok || !out.Bottom {
		t.Fatalf("p3 ∉ S got %v", out)
	}
}

func TestSigmaSCrashedMemberOutputsPi(t *testing.T) {
	f := dist.CrashPattern(4, 2)
	o := NewSigmaS(f, dist.NewProcSet(1, 2), 0)
	out := o.Output(2, 3).(TrustList)
	if out.Trusted != f.All() {
		t.Fatalf("crashed member outputs %v, want Π", out)
	}
}

func TestCheckSigmaSRejectsDisjointLists(t *testing.T) {
	f := dist.NewFailurePattern(4)
	s := dist.NewProcSet(1, 2)
	bad := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		if !s.Contains(p) {
			return TrustList{Bottom: true}
		}
		return TrustList{Trusted: dist.NewProcSet(p)} // {1} vs {2}: disjoint
	})
	vs := CheckSigmaS(f, s, bad, 50, 25)
	if len(vs) == 0 {
		t.Fatal("disjoint trust lists accepted")
	}
	if vs[len(vs)-1].Property != "intersection" {
		t.Fatalf("got %v, want intersection violation", vs)
	}
}

// TestCheckSigmaSWitnessOrderIsStable: the intersection witnesses are
// listed in first-output order (p, then t) on every call, not in map order.
func TestCheckSigmaSWitnessOrderIsStable(t *testing.T) {
	f := dist.NewFailurePattern(4)
	singletons := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		return TrustList{Trusted: dist.NewProcSet(p)}
	})
	first := CheckSigmaS(f, f.All(), singletons, 10, 5)
	if len(first) != 6 || first[0].Witness != "H(p1,0)={p1} ∩ H(p2,0)={p2} = ∅" {
		t.Fatalf("got %v, want the six pairs starting with p1 vs p2", first)
	}
	for i := 0; i < 100; i++ {
		if got := CheckSigmaS(f, f.All(), singletons, 10, 5); !slices.Equal(got, first) {
			t.Fatalf("call %d: %v, first call: %v", i, got, first)
		}
	}
}

func TestCheckSigmaSRejectsIncomplete(t *testing.T) {
	f := dist.CrashPattern(4, 4)
	s := f.All()
	bad := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		return TrustList{Trusted: f.All()} // trusts the crashed p4 forever
	})
	vs := CheckSigmaS(f, s, bad, 50, 25)
	if len(vs) == 0 || vs[0].Property != "completeness" {
		t.Fatalf("got %v, want completeness violation", vs)
	}
}

func TestCheckSigmaSRejectsEmptyList(t *testing.T) {
	f := dist.NewFailurePattern(3)
	bad := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		return TrustList{} // ∅ violates intersection by itself
	})
	vs := CheckSigmaS(f, f.All(), bad, 10, 5)
	if len(vs) == 0 || vs[0].Property != "intersection" {
		t.Fatalf("got %v", vs)
	}
}

func TestOmegaOracleValid(t *testing.T) {
	for _, f := range patterns5() {
		o := &OmegaOracle{F: f, Stab: 20}
		if vs := CheckOmega(f, o, 150, 100); len(vs) != 0 {
			t.Fatalf("%v: %v", f, vs)
		}
	}
}

func TestCheckOmegaRejectsFlapping(t *testing.T) {
	f := dist.NewFailurePattern(3)
	bad := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		return dist.ProcID(1 + int64(tm)%3)
	})
	if vs := CheckOmega(f, bad, 100, 50); len(vs) == 0 {
		t.Fatal("flapping leader accepted")
	}
}

func TestAntiOmegaOracleValid(t *testing.T) {
	for _, f := range patterns5() {
		o := &AntiOmegaOracle{F: f, Stab: 20}
		if vs := CheckAntiOmega(f, o, 150, 100); len(vs) != 0 {
			t.Fatalf("%v: %v", f, vs)
		}
	}
}

func TestCheckAntiOmegaRejectsCoveringAll(t *testing.T) {
	f := dist.NewFailurePattern(3)
	bad := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		return dist.ProcID(1 + int64(tm)%3) // every id forever
	})
	if vs := CheckAntiOmega(f, bad, 100, 50); len(vs) == 0 {
		t.Fatal("rotating-forever anti-Ω accepted")
	}
}

func TestMajoritySigmaEmulation(t *testing.T) {
	cases := []*dist.FailurePattern{
		dist.NewFailurePattern(5),
		dist.CrashPattern(5, 5),
		func() *dist.FailurePattern { f := dist.NewFailurePattern(5); f.CrashAt(4, 50); return f }(),
		dist.NewFailurePattern(3),
	}
	for _, f := range cases {
		for seed := int64(0); seed < 5; seed++ {
			horizon := int64(2500)
			res, err := sim.Run(sim.Config{
				Pattern:   f,
				History:   sim.HistoryFunc(func(dist.ProcID, dist.Time) any { return nil }),
				Program:   MajoritySigmaProgram(f.All()),
				Scheduler: sim.NewRandomScheduler(seed),
				MaxSteps:  horizon,
			})
			if err != nil {
				t.Fatal(err)
			}
			hist := ClampCrashedToPi(
				&RecordedHistory{Trace: res.Trace, Default: TrustList{Trusted: f.All()}},
				f, f.All())
			if vs := CheckSigmaS(f, f.All(), hist, dist.Time(horizon), dist.Time(horizon*3/4)); len(vs) != 0 {
				t.Fatalf("%v seed=%d: %v", f, seed, vs)
			}
		}
	}
}

func TestMajoritySigmaRestrictedS(t *testing.T) {
	f := dist.NewFailurePattern(5)
	s := dist.NewProcSet(2, 4)
	horizon := int64(1500)
	res, err := sim.Run(sim.Config{
		Pattern:   f,
		History:   sim.HistoryFunc(func(dist.ProcID, dist.Time) any { return nil }),
		Program:   MajoritySigmaProgram(s),
		Scheduler: sim.NewRandomScheduler(3),
		MaxSteps:  horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	hist := ClampCrashedToPi(&RecordedHistory{Trace: res.Trace, Default: TrustList{Bottom: true}}, f, s)
	// Non-members output ⊥; wrap defaults accordingly by overriding.
	wrapped := sim.HistoryFunc(func(p dist.ProcID, tm dist.Time) any {
		if !s.Contains(p) {
			return TrustList{Bottom: true}
		}
		return hist.Output(p, tm)
	})
	if vs := CheckSigmaS(f, s, wrapped, dist.Time(horizon), dist.Time(horizon*3/4)); len(vs) != 0 {
		t.Fatalf("%v", vs)
	}
}

// TestMajorityQuorumIntersectionProperty: any two majorities of Π intersect —
// the property the emulation's correctness rests on.
func TestMajorityQuorumIntersectionProperty(t *testing.T) {
	prop := func(rawA, rawB []uint8, nRaw uint8) bool {
		n := 2 + int(nRaw)%14
		full := dist.FullSet(n)
		a, b := full, full
		// Remove members while keeping a strict majority.
		for _, r := range rawA {
			p := dist.ProcID(1 + int(r)%n)
			if a.Remove(p).Len() >= n/2+1 {
				a = a.Remove(p)
			}
		}
		for _, r := range rawB {
			p := dist.ProcID(1 + int(r)%n)
			if b.Remove(p).Len() >= n/2+1 {
				b = b.Remove(p)
			}
		}
		return a.Intersects(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordedHistoryDefault(t *testing.T) {
	h := &RecordedHistory{Trace: &trace.Trace{}, Default: "fallback"}
	if got := h.Output(1, 5); got != "fallback" {
		t.Fatalf("Output=%v, want the default before any recorded change", got)
	}
}
