package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/dist"
)

// scanScheduler is the O(alive) bounded-bypass scan RandomScheduler used
// before its starvation list: the reference the list must reproduce choice
// for choice. bypasses counts the picks the bypass made.
type scanScheduler struct {
	rng      stream
	maxSkip  int
	bypasses int

	lastStep [dist.MaxProcs + 1]int64
	tick     int64
	aliveKey dist.ProcSet
	scratch  []dist.ProcID
}

func (s *scanScheduler) Reseed(seed int64) {
	s.rng = stream{seed: uint64(seed)}
	s.tick = 0
	s.lastStep = [dist.MaxProcs + 1]int64{}
}

func (s *scanScheduler) Next(v *View) (Choice, bool) {
	if v.Alive != s.aliveKey {
		s.scratch = v.Alive.AppendMembers(s.scratch[:0])
		s.aliveKey = v.Alive
	}
	alive := s.scratch
	if len(alive) == 0 {
		return Choice{}, false
	}
	s.tick++
	maxSkip := s.maxSkip
	if maxSkip <= 0 {
		maxSkip = 4 * v.N
	}
	var pick dist.ProcID
	var worst int64 = -1
	for _, p := range alive {
		age := s.tick - s.lastStep[p]
		if age > int64(maxSkip) && age > worst {
			worst, pick = age, p
		}
	}
	if pick == dist.None {
		pick = alive[s.rng.intn(len(alive))]
	} else {
		s.bypasses++
	}
	s.lastStep[pick] = s.tick

	mode := DeliverAuto
	if v.Pending(pick) > 0 && s.rng.float64() < nullProb {
		mode = DeliverNone
	}
	return Choice{Proc: pick, Mode: mode}, true
}

// TestRandomSchedulerMatchesScan drives RandomScheduler and the reference
// scan through the same random alive-set sequences — crashes, recoveries,
// an emptied system and mid-sequence reseeds — and requires identical
// choices at every tick, with maxSkip small enough that the bypass fires.
func TestRandomSchedulerMatchesScan(t *testing.T) {
	for _, n := range []int{1, 2, 5, 63, 64, 65, 128, 256} {
		for _, maxSkip := range []int{1, n/2 + 1, 0} {
			const seed = 11
			got := NewRandomScheduler(seed)
			want := &scanScheduler{rng: stream{seed: seed}}
			got.maxSkip, want.maxSkip = maxSkip, maxSkip
			drive := rand.New(rand.NewSource(int64(n*1000 + maxSkip)))
			v := View{
				N:       n,
				Alive:   dist.FullSet(n),
				Pending: func(p dist.ProcID) int { return int(p) % 3 },
			}
			for tick := 0; tick < 20_000; tick++ {
				switch r := drive.Intn(1000); {
				case r < 15: // crash or recover one process
					p := dist.ProcID(1 + drive.Intn(n))
					if v.Alive.Contains(p) {
						v.Alive = v.Alive.Remove(p)
					} else {
						v.Alive = v.Alive.Add(p)
					}
				case r < 16:
					v.Alive = dist.ProcSet{}
				case r < 18:
					v.Alive = dist.FullSet(n)
				case r < 19:
					s := drive.Int63()
					got.Reseed(s)
					want.Reseed(s)
				}
				v.Now = dist.Time(tick)
				c1, ok1 := got.Next(&v)
				c2, ok2 := want.Next(&v)
				if ok1 != ok2 || c1.Proc != c2.Proc || c1.Mode != c2.Mode {
					t.Fatalf("n=%d maxSkip=%d tick %d alive %v: list picked (%v, p%d, %d), scan (%v, p%d, %d)",
						n, maxSkip, tick, v.Alive, ok1, int(c1.Proc), c1.Mode, ok2, int(c2.Proc), c2.Mode)
				}
			}
			if maxSkip == 1 && n > 1 && want.bypasses == 0 {
				t.Fatalf("n=%d maxSkip=1: the bypass never fired, so nothing was compared", n)
			}
		}
	}
}

// TestRandomSchedulerAllocationFree pins Next — including the list rebuild
// on an alive-set change — and Reseed to zero allocations.
func TestRandomSchedulerAllocationFree(t *testing.T) {
	const n = 128
	s := NewRandomScheduler(3)
	full := dist.FullSet(n)
	v := View{N: n, Alive: full, Pending: func(dist.ProcID) int { return 1 }}
	s.Next(&v) // sizes the member list
	if a := testing.AllocsPerRun(1000, func() { s.Next(&v) }); a != 0 {
		t.Fatalf("Next allocates %.1f times per call", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		if v.Alive == full {
			v.Alive = full.Remove(7).Remove(90)
		} else {
			v.Alive = full
		}
		s.Next(&v)
	}); a != 0 {
		t.Fatalf("Next across alive-set changes allocates %.1f times per call", a)
	}
	if a := testing.AllocsPerRun(1000, func() { s.Reseed(9) }); a != 0 {
		t.Fatalf("Reseed allocates %.1f times per call", a)
	}
}

// TestStreamPinned pins the scheduler's stream: the first raw draw and the
// first eight intn(128) draws of two seeds. Draw 1 of seed 0 is the first
// output of the reference splitmix64 from state 0. CI also runs this test
// under GOARCH=386, so a seed gives the same schedule on 32-bit hosts.
func TestStreamPinned(t *testing.T) {
	for _, tc := range []struct {
		seed  int64
		raw   uint64
		picks [8]int
	}{
		{0, 0xe220a8397b1dcdaf, [8]int{113, 55, 3, 124, 13, 41, 22, 98}},
		{11, 0x50f5647d2380309d, [8]int{40, 33, 81, 64, 21, 70, 12, 99}},
	} {
		r := stream{seed: uint64(tc.seed)}
		if got := r.next(); got != tc.raw {
			t.Errorf("seed %d: first draw 0x%016x, want 0x%016x", tc.seed, got, tc.raw)
		}
		r = stream{seed: uint64(tc.seed)}
		var picks [8]int
		for i := range picks {
			picks[i] = r.intn(128)
		}
		if picks != tc.picks {
			t.Errorf("seed %d: first intn(128) draws %v, want %v", tc.seed, picks, tc.picks)
		}
	}
}

// TestStreamReseedMatchesNew requires Reseed(s) to rewind a scheduler to
// NewRandomScheduler(s) choice for choice: a zero scheduler reseeded, and
// one reseeded after a run of its own under another seed and alive set.
func TestStreamReseedMatchesNew(t *testing.T) {
	const n, seed, ticks = 6, 42, 5000
	v := View{N: n}
	v.Pending = func(p dist.ProcID) int { return (int(p) + int(v.Now)) % 2 }
	used := NewRandomScheduler(seed + 1)
	v.Alive = dist.FullSet(n).Remove(3)
	for i := 0; i < ticks; i++ {
		v.Now = dist.Time(i)
		used.Next(&v)
	}
	used.Reseed(seed)
	zero := &RandomScheduler{}
	zero.Reseed(seed)
	fresh := NewRandomScheduler(seed)
	reseeded := map[string]*RandomScheduler{"reseeded after a run": used, "reseeded zero": zero}
	v.Alive = dist.FullSet(n)
	for i := 0; i < ticks; i++ {
		v.Now = dist.Time(i)
		want, _ := fresh.Next(&v)
		for name, s := range reseeded {
			if got, _ := s.Next(&v); got.Proc != want.Proc || got.Mode != want.Mode {
				t.Fatalf("%s, tick %d: picked (p%d, %d), NewRandomScheduler (p%d, %d)",
					name, i, int(got.Proc), got.Mode, int(want.Proc), want.Mode)
			}
		}
	}
	if used.rng != fresh.rng || zero.rng != fresh.rng {
		t.Fatalf("streams diverged: %+v and %+v, want %+v", used.rng, zero.rng, fresh.rng)
	}
}

// TestStreamIntnUniform runs a χ² goodness-of-fit test of intn against the
// uniform distribution over 10⁶ draws per bound, at the p = 0.001 critical
// value (the Wilson–Hilferty approximation). The seed is fixed, so the
// test is deterministic.
func TestStreamIntnUniform(t *testing.T) {
	const draws = 1_000_000
	for _, n := range []int{1, 3, 6, 128, 256} {
		r := stream{seed: 7}
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[r.intn(n)]++
		}
		expect := float64(draws) / float64(n)
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expect
			chi2 += d * d / expect
		}
		if n == 1 {
			if counts[0] != draws {
				t.Errorf("intn(1) drew outside {0}")
			}
			continue
		}
		df := float64(n - 1)
		h := 2 / (9 * df)
		if crit := df * math.Pow(1-h+3.09*math.Sqrt(h), 3); chi2 > crit {
			t.Errorf("intn(%d): χ² = %.1f over %d draws, above the p=0.001 critical value %.1f for %v degrees of freedom",
				n, chi2, draws, crit, df)
		}
	}
}

// TestStreamIntnRejects drives intn's rejection step, which small bounds
// almost never reach: for n = 3·2⁶¹ the biased low zone, 2⁶⁴ mod n = 2⁶²,
// is a quarter of the raw draws, which are drawn again, so a result takes
// 4/3 raw draws on average (rejecting every draw whose low word is below n
// would take 8/5), and every result stays below n.
func TestStreamIntnRejects(t *testing.T) {
	if bits.UintSize < 64 {
		t.Skip("needs a 64-bit int to hold a bound with a wide rejection zone")
	}
	const draws = 10_000
	bound := uint64(3) << 61 // a variable, so 32-bit builds compile
	n := int(bound)
	r := stream{seed: 3}
	for i := 0; i < draws; i++ {
		if x := r.intn(n); x < 0 || x >= n {
			t.Fatalf("intn(%d) = %d", n, x)
		}
	}
	if extra := int(r.k) - draws; extra < draws/4 || extra > draws*2/5 {
		t.Fatalf("%d draws took %d raw draws, want about a third more", draws, r.k)
	}
}

// TestStreamNullCoin checks the null-step coin: float64() < nullProb holds
// on 25% ± 0.5% of 10⁶ draws.
func TestStreamNullCoin(t *testing.T) {
	const draws = 1_000_000
	r := stream{seed: 5}
	hits := 0
	for i := 0; i < draws; i++ {
		if r.float64() < nullProb {
			hits++
		}
	}
	if frac := float64(hits) / draws; math.Abs(frac-nullProb) > 0.005 {
		t.Fatalf("float64() < %v on %.4f of %d draws", nullProb, frac, draws)
	}
}

// BenchmarkRandomScheduler times one Next (half of the picks have a message
// pending, so half of them draw the null-step coin) and one Reseed, at the
// consensus and the store benchmark sizes.
func BenchmarkRandomScheduler(b *testing.B) {
	for _, n := range []int{6, 128} {
		v := View{N: n, Alive: dist.FullSet(n), Pending: func(p dist.ProcID) int { return int(p) % 2 }}
		b.Run(fmt.Sprintf("Next/n=%d", n), func(b *testing.B) {
			s := NewRandomScheduler(1)
			s.Next(&v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Next(&v)
			}
		})
		b.Run(fmt.Sprintf("Reseed/n=%d", n), func(b *testing.B) {
			s := NewRandomScheduler(1)
			s.Next(&v)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reseed(int64(i))
			}
		})
	}
}
