package dist

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestProcSetAddRemoveContainsRoundTrip(t *testing.T) {
	prop := func(raw []uint8) bool {
		ref := make(map[ProcID]bool)
		var s ProcSet
		for _, b := range raw {
			p := ProcID(int(b)%MaxProcs + 1)
			if b&0x80 != 0 {
				s = s.Remove(p)
				delete(ref, p)
			} else {
				s = s.Add(p)
				ref[p] = true
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for p := ProcID(1); p <= MaxProcs; p++ {
			if s.Contains(p) != ref[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProcSetMembersOrderingAndAccessors(t *testing.T) {
	prop := func(raw []uint8) bool {
		var ps []ProcID
		for _, b := range raw {
			ps = append(ps, ProcID(int(b)%MaxProcs+1))
		}
		s := NewProcSet(ps...)
		ms := s.Members()
		if !sort.SliceIsSorted(ms, func(i, j int) bool { return ms[i] < ms[j] }) {
			return false
		}
		for i, p := range ms {
			if s.Nth(i) != p {
				return false
			}
		}
		var viaForEach []ProcID
		s.ForEach(func(p ProcID) { viaForEach = append(viaForEach, p) })
		if len(viaForEach) != len(ms) {
			return false
		}
		for i := range ms {
			if viaForEach[i] != ms[i] {
				return false
			}
		}
		if len(ms) == 0 {
			return s.Min() == None && s.Max() == None && s.IsEmpty()
		}
		return s.Min() == ms[0] && s.Max() == ms[len(ms)-1]
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProcSetAlgebra(t *testing.T) {
	prop := func(x, y ProcSet) bool {
		if x.Union(y).Len() != x.Len()+y.Len()-x.Intersect(y).Len() {
			return false
		}
		if !x.Intersect(y).SubsetOf(x) || !x.Intersect(y).SubsetOf(y) {
			return false
		}
		if !x.Minus(y).SubsetOf(x) || x.Minus(y).Intersects(y) {
			return false
		}
		return x.Minus(y).Union(x.Intersect(y)) == x
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeSetAndFullSet(t *testing.T) {
	if RangeSet(1, 6) != FullSet(6) {
		t.Fatalf("RangeSet(1,6)=%v, FullSet(6)=%v", RangeSet(1, 6), FullSet(6))
	}
	if got := RangeSet(3, 5).Members(); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("RangeSet(3,5) = %v", got)
	}
	if !RangeSet(5, 3).IsEmpty() {
		t.Fatal("inverted range must be empty")
	}
	if FullSet(MaxProcs).Len() != MaxProcs {
		t.Fatalf("FullSet(%d).Len() = %d", MaxProcs, FullSet(MaxProcs).Len())
	}
	if got := Smallest3(); got != NewProcSet(1, 2, 4) {
		t.Fatalf("Smallest kept %v", got)
	}
}

// Smallest3 exercises Smallest on a gapped set (helper keeps the test above
// table-free).
func Smallest3() ProcSet { return NewProcSet(1, 2, 4, 7, 9).Smallest(3) }

func TestProcSetString(t *testing.T) {
	if got := NewProcSet(1, 3).String(); got != "{p1,p3}" {
		t.Fatalf("String() = %q", got)
	}
	if got := (ProcSet{}).String(); got != "{}" {
		t.Fatalf("empty String() = %q", got)
	}
}

func TestFailurePatternAliveAtMonotonicVsCrashTimes(t *testing.T) {
	prop := func(raw []uint8, horizon uint8) bool {
		n := 8
		f := NewFailurePattern(n)
		for i, b := range raw {
			if i >= n {
				break
			}
			f.CrashAt(ProcID(i+1), Time(b%50))
		}
		h := Time(horizon%120) + 60
		prev := f.All()
		for tm := Time(0); tm < h; tm++ {
			alive := f.AliveAt(tm)
			// Monotone: crashed processes never come back.
			if !alive.SubsetOf(prev) {
				return false
			}
			// Agreement with the scalar definition.
			for p := ProcID(1); int(p) <= n; p++ {
				if alive.Contains(p) != f.Alive(p, tm) {
					return false
				}
				if f.Alive(p, tm) != (tm < f.CrashTime(p)) {
					return false
				}
			}
			prev = alive
		}
		// Eventually exactly the correct processes remain.
		return f.AliveAt(NoCrash-1) == f.Correct()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFailurePatternBasics(t *testing.T) {
	f := NewFailurePattern(5)
	if f.N() != 5 || f.All() != FullSet(5) || f.Correct() != FullSet(5) {
		t.Fatal("fresh pattern must be failure-free")
	}
	f.CrashAt(2, 0)
	f.CrashAt(4, 10)
	if f.Alive(2, 0) {
		t.Fatal("initially-dead process alive at t=0")
	}
	if !f.Alive(4, 9) || f.Alive(4, 10) {
		t.Fatal("crash at 10 must make p4 dead from t=10 on")
	}
	if f.Correct() != NewProcSet(1, 3, 5) || f.Faulty() != NewProcSet(2, 4) {
		t.Fatalf("Correct()=%v Faulty()=%v", f.Correct(), f.Faulty())
	}
	if f.IsCorrect(2) || !f.IsCorrect(1) {
		t.Fatal("IsCorrect disagrees with crash schedule")
	}
	if !f.InEnvironment() {
		t.Fatal("pattern with correct processes is in the environment")
	}
	// Updating a crash time after reads must rebuild the schedule.
	if f.AliveAt(0) != NewProcSet(1, 3, 4, 5) {
		t.Fatalf("AliveAt(0) = %v", f.AliveAt(0))
	}
	f.CrashAt(1, 3)
	if f.AliveAt(5) != NewProcSet(3, 4, 5) {
		t.Fatalf("AliveAt(5) after new crash = %v", f.AliveAt(5))
	}
	f.CrashAt(1, NoCrash) // revive
	if !f.IsCorrect(1) || !f.AliveAt(5).Contains(1) {
		t.Fatal("CrashAt(p, NoCrash) must revive the process")
	}
	if CrashPattern(3, 3).Correct() != NewProcSet(1, 2) {
		t.Fatal("CrashPattern crashes from time 0")
	}
}

// The simulator's per-step queries must not allocate: this is the contract
// the sim hot path is built on, asserted here so a dist regression fails
// fast and close to its cause.
func TestHotPathOpsDoNotAllocate(t *testing.T) {
	f := NewFailurePattern(16)
	f.CrashAt(3, 10)
	f.CrashAt(7, 25)
	scratch := make([]ProcID, 0, 16)
	var sink ProcSet
	var sinkN int
	allocs := testing.AllocsPerRun(1000, func() {
		s := f.AliveAt(17).Union(f.Correct())
		s = s.Add(3).Remove(7).Intersect(FullSet(12))
		sinkN += s.Len() + int(s.Min()) + int(s.Max()) + int(s.Nth(2))
		scratch = s.AppendMembers(scratch[:0])
		sinkN += len(scratch)
		sink = s
	})
	if allocs != 0 {
		t.Fatalf("hot-path set/pattern ops allocate %.1f times per run, want 0", allocs)
	}
	_ = sink
}

func BenchmarkProcSetOps(b *testing.B) {
	b.ReportAllocs()
	s := FullSet(48)
	var acc int
	for i := 0; i < b.N; i++ {
		p := ProcID(i%MaxProcs + 1)
		s = s.Add(p).Remove(p / 2)
		acc += s.Len() + int(s.Min())
	}
	_ = acc
}

func BenchmarkAliveAt(b *testing.B) {
	b.ReportAllocs()
	f := NewFailurePattern(32)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		f.CrashAt(ProcID(rng.Intn(32)+1), Time(rng.Intn(100)))
	}
	var acc ProcSet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = acc.Union(f.AliveAt(Time(i % 128)))
	}
	_ = acc
}

func BenchmarkAppendMembers(b *testing.B) {
	b.ReportAllocs()
	s := FullSet(40).Remove(13).Remove(29)
	scratch := make([]ProcID, 0, MaxProcs)
	var acc int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = s.AppendMembers(scratch[:0])
		acc += len(scratch)
	}
	_ = acc
}
