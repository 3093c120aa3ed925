package sim

import (
	"math/bits"

	"repro/internal/dist"
	"repro/internal/trace"
)

// DeliverMode selects which pending message (if any) a scheduled step
// receives.
type DeliverMode uint8

// Delivery modes.
const (
	// DeliverAuto receives the oldest deliverable pending message, or takes
	// a null step when none is pending.
	DeliverAuto DeliverMode = iota + 1
	// DeliverNone forces a null step even when messages are pending;
	// scripted schedules use this to realize the finite unfair prefixes the
	// impossibility proofs need.
	DeliverNone
	// DeliverMatch receives the oldest deliverable pending message matching
	// the choice's Match predicate, or takes a null step when none matches.
	DeliverMatch
)

// Choice is one scheduling decision: which process steps and what it
// receives.
type Choice struct {
	Proc  dist.ProcID
	Mode  DeliverMode
	Match func(m *Message) bool // used by DeliverMatch
}

// View is the read-only state a scheduler may inspect. Schedulers model the
// adversary, so they see everything (unlike processes).
type View struct {
	Now   dist.Time
	N     int
	Alive dist.ProcSet // processes that have not crashed at Now
	// Pending returns the number of deliverable messages queued for p.
	Pending func(p dist.ProcID) int
}

// Scheduler picks the next step of a run. Returning ok=false ends the run.
type Scheduler interface {
	Next(v *View) (Choice, bool)
}

// RandomScheduler is a seeded, fair scheduler: every alive process keeps
// taking steps (bounded bypass) and every pending message is eventually
// delivered (a step of a process with messages pending is a DeliverAuto
// step, which takes the oldest deliverable message, with probability
// 1−nullProb). It models the asynchronous adversary used to exercise
// algorithms across many interleavings.
type RandomScheduler struct {
	rng stream
	// maxSkip, when positive, bounds how many consecutive scheduler picks
	// may bypass an alive process in place of the default 4n.
	maxSkip int

	lastStep [dist.MaxProcs + 1]int64
	tick     int64
	// The alive set only changes at crash and recovery times, so the
	// materialized member list is cached keyed on the set value (== is a
	// cheap word compare) rather than rebuilt every step.
	aliveKey dist.ProcSet
	scratch  []dist.ProcID
	// prev and next link the alive processes into a list ordered by
	// (lastStep, id), between the sentinels lruHead and lruTail. Every pick
	// gets the newest lastStep and moves to the tail, so the head is always
	// the most starved process and bounded bypass is O(1) per step.
	prev, next [dist.MaxProcs + 2]uint16
}

// nullProb is the probability that a step with pending messages is
// nevertheless a null step (exercises "wait" loops).
const nullProb = 0.25

// The list sentinels: no process has identifier 0 or MaxProcs+1.
const (
	lruHead = 0
	lruTail = dist.MaxProcs + 1
)

var _ Scheduler = (*RandomScheduler)(nil)
var _ Reseeder = (*RandomScheduler)(nil)

// NewRandomScheduler returns a fair random scheduler with the given seed.
func NewRandomScheduler(seed int64) *RandomScheduler {
	return &RandomScheduler{rng: stream{seed: uint64(seed)}}
}

// Reseed rewinds the scheduler to the state NewRandomScheduler(seed) would
// produce, so one scheduler serves a whole seed sweep without reallocation.
func (s *RandomScheduler) Reseed(seed int64) {
	s.rng = stream{seed: uint64(seed)}
	s.tick = 0
	s.lastStep = [dist.MaxProcs + 1]int64{}
	s.rebuild()
}

// rebuild links the cached alive members into the starvation list: an
// insertion sort by lastStep over the id-ordered members, which is stable
// and so breaks ties by id. It runs only when the alive set changes or on
// Reseed, and allocates nothing.
func (s *RandomScheduler) rebuild() {
	s.next[lruHead], s.prev[lruTail] = lruTail, lruHead
	for _, p := range s.scratch {
		at := s.prev[lruTail]
		for at != lruHead && s.lastStep[at] > s.lastStep[p] {
			at = s.prev[at]
		}
		s.linkAfter(uint16(p), at)
	}
}

// linkAfter inserts x into the list right after at.
func (s *RandomScheduler) linkAfter(x, at uint16) {
	nx := s.next[at]
	s.prev[x], s.next[x] = at, nx
	s.next[at], s.prev[nx] = x, x
}

// Next implements Scheduler.
func (s *RandomScheduler) Next(v *View) (Choice, bool) {
	if v.Alive != s.aliveKey {
		s.scratch = v.Alive.AppendMembers(s.scratch[:0])
		s.aliveKey = v.Alive
		s.rebuild()
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
	// Bounded bypass: pick the most starved process (the list head; the
	// lowest id among equally starved ones) when it has waited too long,
	// otherwise pick uniformly.
	pick := dist.ProcID(s.next[lruHead])
	if s.tick-s.lastStep[pick] <= int64(maxSkip) {
		pick = alive[s.rng.intn(len(alive))]
	}
	s.lastStep[pick] = s.tick
	x := uint16(pick)
	s.next[s.prev[x]], s.prev[s.next[x]] = s.next[x], s.prev[x]
	s.linkAfter(x, s.prev[lruTail])

	mode := DeliverAuto
	if v.Pending(pick) > 0 && s.rng.float64() < nullProb {
		// Occasional null steps despite pending messages; since nullProb < 1
		// the receiver's DeliverAuto steps still take its oldest
		// deliverable message eventually.
		mode = DeliverNone
	}
	return Choice{Proc: pick, Mode: mode}, true
}

// stream is RandomScheduler's generator, a counter-based splitmix64 stream:
// draw k = 1, 2, … of seed s is Mix(s, k), the k-th output of splitmix64
// seeded with s (Steele, Lea & Flood, OOPSLA 2014). Setting it up is two
// words, and a seed draws the same values on every architecture.
type stream struct{ seed, k uint64 }

// next returns the stream's next 64-bit draw.
func (r *stream) next() uint64 {
	r.k++
	return Mix(r.seed, r.k)
}

// intn returns a uniform draw from [0, n) for n > 0: Lemire's multiply-shift
// (ACM TOMACS 2019) with its rejection step, so every value is exactly
// equally likely.
func (r *stream) intn(n int) int {
	bound := uint64(n)
	hi, lo := bits.Mul64(r.next(), bound)
	if lo < bound {
		for thresh := -bound % bound; lo < thresh; {
			hi, lo = bits.Mul64(r.next(), bound)
		}
	}
	return int(hi)
}

// float64 returns a uniform draw from [0, 1) with 53-bit resolution.
func (r *stream) float64() float64 { return unitFloat(r.next()) }

// RoundRobinScheduler cycles through alive processes in identifier order and
// always delivers the oldest pending message. It yields the canonical
// "synchronous-looking" schedule useful for quick smoke tests.
type RoundRobinScheduler struct {
	next dist.ProcID
}

var _ Scheduler = (*RoundRobinScheduler)(nil)
var _ Reseeder = (*RoundRobinScheduler)(nil)

// Reseed rewinds the cycle to p1 (the seed itself is irrelevant to a
// deterministic scheduler), so one scheduler serves repeated runs.
func (s *RoundRobinScheduler) Reseed(int64) { s.next = 0 }

// Next implements Scheduler.
func (s *RoundRobinScheduler) Next(v *View) (Choice, bool) {
	if v.Alive.IsEmpty() {
		return Choice{}, false
	}
	for i := 0; i < v.N; i++ {
		s.next++
		if s.next > dist.ProcID(v.N) {
			s.next = 1
		}
		if v.Alive.Contains(s.next) {
			return Choice{Proc: s.next, Mode: DeliverAuto}, true
		}
	}
	return Choice{}, false
}

// ScriptedScheduler replays an explicit prefix of choices, then hands over
// to an optional continuation scheduler. It realizes the adversarial runs of
// the impossibility proofs: a finite, precisely controlled prefix followed
// by a fair continuation.
type ScriptedScheduler struct {
	Script []Choice
	Then   Scheduler // nil ends the run when the script is exhausted

	pos int
}

var _ Scheduler = (*ScriptedScheduler)(nil)
var _ Reseeder = (*ScriptedScheduler)(nil)

// Reseed rewinds the script to its start and forwards the seed to the
// continuation scheduler when it is reseedable.
func (s *ScriptedScheduler) Reseed(seed int64) {
	s.pos = 0
	if rs, ok := s.Then.(Reseeder); ok {
		rs.Reseed(seed)
	}
}

// Next implements Scheduler. A Choice with Proc == dist.None is an idle
// tick: time advances with no step, which the proof constructions use to
// align the absolute times of stitched histories. Scripted choices naming a
// crashed process are skipped (the run construction decides crash times
// independently).
func (s *ScriptedScheduler) Next(v *View) (Choice, bool) {
	for s.pos < len(s.Script) {
		c := s.Script[s.pos]
		s.pos++
		if c.Proc == dist.None || v.Alive.Contains(c.Proc) {
			if c.Mode == 0 {
				c.Mode = DeliverAuto
			}
			return c, true
		}
	}
	if s.Then == nil {
		return Choice{}, false
	}
	return s.Then.Next(v)
}

// Idle returns count idle ticks (time passes, nobody steps).
func Idle(count int64) []Choice {
	out := make([]Choice, count)
	return out // zero Choice has Proc == dist.None
}

// ReplayScript reconstructs the exact schedule of a recorded run up to and
// including time upTo: each recorded step is replayed as a choice for the
// same process delivering the same message (matched by sequence number), and
// times without a recorded step become idle ticks. Replaying a deterministic
// automaton against this script reproduces its observation sequence exactly —
// the mechanical form of the proofs' "takes the same steps as in r". An
// untraced run (Config.DisableTrace) has no trace to replay; running its
// seed again with a trace reproduces the same schedule.
//
// seqBase shifts every matched sequence number: a replay that runs after
// other sends of the new run, which took Seq 1..seqBase, passes their
// count; a replay from the new run's start passes 0.
func ReplayScript(tr *trace.Trace, upTo dist.Time, seqBase int64) []Choice {
	steps := make(map[dist.Time]trace.Event)
	for _, e := range tr.Events() {
		if e.Kind == trace.StepKind && e.T <= upTo {
			steps[e.T] = e
		}
	}
	out := make([]Choice, 0, upTo+1)
	for t := dist.Time(0); t <= upTo; t++ {
		e, ok := steps[t]
		if !ok {
			out = append(out, Choice{}) // idle tick
			continue
		}
		c := Choice{Proc: e.P, Mode: DeliverNone}
		if e.Delivered {
			seq := seqBase + e.Seq
			c.Mode = DeliverMatch
			c.Match = func(m *Message) bool { return m.Seq == seq }
		}
		out = append(out, c)
	}
	return out
}

// Steps builds a script that lets each listed process take `count`
// consecutive steps with the given mode, in order.
func Steps(mode DeliverMode, count int, procs ...dist.ProcID) []Choice {
	out := make([]Choice, 0, count*len(procs))
	for _, p := range procs {
		for i := 0; i < count; i++ {
			out = append(out, Choice{Proc: p, Mode: mode})
		}
	}
	return out
}
