package sim

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
)

// scanScheduler is the O(alive) bounded-bypass scan RandomScheduler used
// before its starvation list: the reference the list must reproduce choice
// for choice. bypasses counts the picks the bypass made.
type scanScheduler struct {
	rng      *rand.Rand
	maxSkip  int
	bypasses int

	lastStep [dist.MaxProcs + 1]int64
	tick     int64
	aliveKey dist.ProcSet
	scratch  []dist.ProcID
}

func (s *scanScheduler) Reseed(seed int64) {
	s.rng.Seed(seed)
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
		pick = alive[s.rng.Intn(len(alive))]
	} else {
		s.bypasses++
	}
	s.lastStep[pick] = s.tick

	mode := DeliverAuto
	if v.Pending(pick) > 0 && s.rng.Float64() < nullProb {
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
			want := &scanScheduler{rng: rand.New(rand.NewSource(seed))}
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
