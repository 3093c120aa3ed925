package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
)

// Snapshotter is an automaton that can deep-copy its state, enabling
// exhaustive exploration (the explorer branches the world at every step).
type Snapshotter interface {
	Automaton
	Snapshot() Automaton
}

// ExploreConfig bounds an exhaustive run of Explore.
type ExploreConfig struct {
	// Pattern, History, Program as in Config. Every automaton returned by
	// Program must implement Snapshotter.
	Pattern *dist.FailurePattern
	History History
	Program Program
	// MaxDepth bounds schedule length (exploration cuts off deeper paths).
	MaxDepth int
	// MaxStates soft-bounds the visited set; exceeding it sets Truncated.
	// The bound is enforced between depth levels (a level in progress always
	// completes), which keeps every result field deterministic and
	// independent of Workers. Default 1 << 20.
	MaxStates int
	// TimeCap declares that History is constant in t for t ≥ TimeCap at
	// every process and that no crash occurs at or after TimeCap. States
	// that differ only in time beyond the cap are then behaviorally
	// identical and are merged, which is what makes busy-wait loops
	// converge. Default 0 (history constant from the start).
	TimeCap dist.Time
	// Workers sets the size of the worker pool that expands each depth
	// level of the search in parallel. 0 means GOMAXPROCS; a negative value
	// is an error. Results are bit-identical for every worker count: the
	// search is level-synchronous and the reported violation is the
	// minimal-depth one with the smallest canonical state hash (ties broken
	// by witness text).
	//
	// With Workers > 1, History, Check and CheckAutomata are called
	// concurrently from multiple goroutines and must be safe for that:
	// pure functions and pre-boxed read-only oracles (fd.SigmaSOracle,
	// core's SigmaOracle and SigmaKOracle, consensus.Oracle,
	// agreement.SafetyCheck) are; stateful Check closures are not, and
	// require Workers: 1.
	Workers int
	// Check is the safety predicate evaluated on the decision map in every
	// reachable state; a non-empty string is a violation witness. The map
	// is reused across calls and must not be retained. Equal maps must
	// yield equal witness strings (iterate processes in identity order,
	// not map order), or reported violations lose their run-to-run
	// reproducibility.
	Check func(decisions map[dist.ProcID]any) string
	// CheckAutomata, when non-nil, is an additional safety predicate over
	// the automata themselves, evaluated in every reachable state (index
	// ProcID-1). It enables exhaustive checking of cross-process invariants
	// such as the Intersection property of emulated failure detectors. It
	// must treat the automata as read-only.
	CheckAutomata func(automata []Automaton) string
}

// ExploreResult reports an exhaustive exploration.
type ExploreResult struct {
	// StatesVisited counts distinct explored states; StepsExecuted counts
	// automaton steps across all branches.
	StatesVisited int64
	StepsExecuted int64
	// Truncated is set when MaxDepth or MaxStates cut the exploration.
	Truncated bool
	// Violation is the safety violation found at the smallest depth ("" if
	// none), and ViolationDepth the schedule length that reached it.
	Violation      string
	ViolationDepth int
}

// ErrNotSnapshotter is returned when a program automaton cannot be cloned.
var ErrNotSnapshotter = errors.New("sim: explore requires Snapshotter automata")

// Explore enumerates every schedule of the configured system up to the
// depth bound: at each state it branches over every alive process and every
// distinct deliverable message (plus the null delivery) for that process.
// It checks the safety predicate in every reachable state, so an empty
// result Violation means no reachable interleaving (within bounds) violates
// the property — a bounded model-checking guarantee strictly stronger than
// the seeded sampling of Run. Each branch takes Run's step, a double decision
// (see Env.Decide) is a violation, and a pattern with recoveries is rejected.
//
// The search is a level-synchronous breadth-first traversal: states are
// canonicalized to a binary encoding (StateEncoder fast path, fmt fallback),
// hashed to a 64-bit key in a mutex-sharded visited set, and every depth
// level is expanded by a pool of Workers. Breadth-first order means every
// state is reached at its minimal depth and the reported violation is a
// minimal-depth one. As in all hash-compaction model checkers, a 64-bit key
// collision would merge two distinct states; the probability is negligible
// at the state counts the bounds admit.
func Explore(cfg ExploreConfig) (*ExploreResult, error) {
	if cfg.Pattern == nil || cfg.History == nil || cfg.Program == nil || cfg.Check == nil {
		return nil, errors.New("sim: ExploreConfig requires Pattern, History, Program and Check")
	}
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 1 << 20
	}
	n := cfg.Pattern.N()
	for _, x := range cfg.Pattern.Transitions() {
		if x.Recover {
			return nil, fmt.Errorf("sim: explore does not model recoveries, but p%d recovers at %d", int(x.P), int64(x.T))
		}
		if cfg.TimeCap > 0 && x.T >= cfg.TimeCap {
			return nil, fmt.Errorf("sim: crash of p%d at %d not before TimeCap %d", int(x.P), int64(x.T), int64(cfg.TimeCap))
		}
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("sim: ExploreConfig.Workers must not be negative, got %d", cfg.Workers)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	root := &xstate{
		automata:  make([]Automaton, n),
		queues:    make([][]xmsg, n+1),
		decisions: make([]any, n),
	}
	for p := dist.ProcID(1); int(p) <= n; p++ {
		a := cfg.Program(p, n)
		if _, ok := a.(Snapshotter); !ok {
			return nil, fmt.Errorf("%w: %T", ErrNotSnapshotter, a)
		}
		root.automata[p-1] = a
	}

	e := &explorer{cfg: cfg, n: n, workers: workers}
	for i := range e.shards {
		e.shards[i].m = make(map[uint64]struct{})
	}
	violation, vioDepth := e.run(root)
	res := &ExploreResult{
		StatesVisited:  e.states.Load(),
		StepsExecuted:  e.steps.Load(),
		Truncated:      e.truncated.Load(),
		Violation:      violation,
		ViolationDepth: vioDepth,
	}
	return res, nil
}

// xmsg is a pending message: its canonical hash is computed once at send
// time and reused for queue-multiset hashing and duplicate-delivery pruning
// in every descendant state.
type xmsg struct {
	from    dist.ProcID
	layer   Layer
	payload any
	h       uint64
}

// xstate is one explored world state. decisions is indexed ProcID-1 and
// meaningful only for members of decided.
type xstate struct {
	t         dist.Time
	automata  []Automaton
	queues    [][]xmsg
	decided   dist.ProcSet
	decisions []any
}

type frontierNode struct {
	st   *xstate
	hash uint64
}

const seenShards = 64

type seenShard struct {
	mu sync.Mutex
	m  map[uint64]struct{}
	_  [40]byte // pad toward a cache line; shards are hit from all workers
}

type explorer struct {
	cfg     ExploreConfig
	n       int
	workers int

	shards    [seenShards]seenShard
	states    atomic.Int64
	steps     atomic.Int64
	truncated atomic.Bool

	frontier []frontierNode
	next     []frontierNode
	cursor   atomic.Int64
}

// addSeen records h in the visited set and reports whether it was new.
func (e *explorer) addSeen(h uint64) bool {
	sh := &e.shards[h&(seenShards-1)]
	sh.mu.Lock()
	if _, dup := sh.m[h]; dup {
		sh.mu.Unlock()
		return false
	}
	sh.m[h] = struct{}{}
	sh.mu.Unlock()
	return true
}

// run drives the level-synchronous search and returns the selected
// violation, if any. Every observable outcome is independent of the worker
// count: the visited set, state and step counters are content-addressed
// (queue multisets hash order-independently), each level either completes
// in full or is never started, and the violation for the first violating
// depth is chosen by minimal canonical state hash, ties broken by witness
// text.
func (e *explorer) run(root *xstate) (string, int) {
	ws := make([]*xworker, e.workers)
	for i := range ws {
		ws[i] = newWorker(e)
	}
	w0 := ws[0]

	rootHash := w0.hashState(root)
	if v := w0.checkState(root); v != "" {
		return v, 0
	}
	if e.cfg.MaxDepth <= 0 {
		e.truncated.Store(true)
		return "", 0
	}
	e.addSeen(rootHash)
	e.states.Add(1)
	e.frontier = append(e.frontier[:0], frontierNode{root, rootHash})

	for depth := 0; len(e.frontier) > 0; depth++ {
		if e.states.Load() >= int64(e.cfg.MaxStates) {
			e.truncated.Store(true)
			break
		}
		e.cursor.Store(0)
		// Small levels are expanded inline: legal because results do not
		// depend on which worker expands which state.
		if active := min(e.workers, len(e.frontier)); active == 1 {
			w0.expandLevel(depth)
		} else {
			var wg sync.WaitGroup
			for _, w := range ws[:active] {
				wg.Add(1)
				go func(w *xworker) {
					defer wg.Done()
					w.expandLevel(depth)
				}(w)
			}
			wg.Wait()
		}

		e.next = e.next[:0]
		vioFound := false
		var vio string
		var vioHash uint64
		for _, w := range ws {
			e.steps.Add(w.steps)
			w.steps = 0
			if w.vioFound && (!vioFound || w.vioHash < vioHash || (w.vioHash == vioHash && w.vio < vio)) {
				vioFound, vio, vioHash = true, w.vio, w.vioHash
			}
			e.next = append(e.next, w.next...)
			w.next = w.next[:0]
		}
		if vioFound {
			return vio, depth + 1
		}
		e.frontier, e.next = e.next, e.frontier
	}
	return "", 0
}

// xworker owns all scratch state of one search worker, so the per-branch
// path allocates nothing beyond the stepped automaton's own Snapshot.
type xworker struct {
	e    *explorer
	free []*xstate // recycled xstate shells (slices keep their capacity)

	enc       []byte // state-encoding scratch
	menc      []byte // message-encoding scratch
	dedup     []uint64
	members   []dist.ProcID
	checkMap  map[dist.ProcID]any
	env       Env
	delivered Message

	next  []frontierNode
	steps int64

	vioFound bool
	vio      string
	vioHash  uint64
}

func newWorker(e *explorer) *xworker {
	w := &xworker{e: e, checkMap: make(map[dist.ProcID]any, e.n)}
	w.env.history = e.cfg.History
	w.env.pools = new(poolSet)
	return w
}

func (w *xworker) expandLevel(depth int) {
	e := w.e
	for {
		i := int(e.cursor.Add(1) - 1)
		if i >= len(e.frontier) {
			return
		}
		s := e.frontier[i].st
		w.expand(s, depth)
		w.release(s)
	}
}

// expand branches s over every alive process and every distinct pending
// message (plus the null delivery). Distinct is decided by the messages'
// canonical hashes, so no per-state rendering or map is built.
func (w *xworker) expand(s *xstate, depth int) {
	alive := w.e.cfg.Pattern.AliveAt(s.t)
	w.members = alive.AppendMembers(w.members[:0])
	for _, p := range w.members {
		w.branch(s, depth, p, -1)
		q := s.queues[p]
		w.dedup = w.dedup[:0]
		for i := range q {
			dup := false
			for _, h := range w.dedup {
				if h == q[i].h {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			w.dedup = append(w.dedup, q[i].h)
			w.branch(s, depth, p, i)
		}
	}
}

// branch clones s, applies one step of p (delivering queue index msgIdx, or
// nothing when -1) and admits the child state.
func (w *xworker) branch(s *xstate, depth int, p dist.ProcID, msgIdx int) {
	c := w.clone(s)
	// Only the stepping automaton can change; every other slot shares the
	// parent's (immutable from here on) automaton.
	c.automata[p-1] = s.automata[p-1].(Snapshotter).Snapshot()
	var delivered *Message
	if msgIdx >= 0 {
		q := c.queues[p]
		m := q[msgIdx]
		q[msgIdx] = q[len(q)-1] // queues are multisets; order-free removal
		c.queues[p] = q[:len(q)-1]
		w.delivered = Message{Sent: c.t, Payload: m.payload, From: m.from, To: p, Layer: m.layer}
		delivered = &w.delivered
	}

	env := &w.env
	// Pending messages are shared across branches, so no delivery is owned.
	env.step(c.automata[p-1], p, w.e.n, c.t, delivered, false)
	w.steps++

	for _, sr := range env.sends {
		h := w.msgHash(p, sr.layer, sr.payload)
		c.queues[sr.to] = append(c.queues[sr.to], xmsg{from: p, layer: sr.layer, payload: sr.payload, h: h})
	}
	var vio string
	if v, ok, err := env.decision(c.decisions[p-1], c.decided.Contains(p)); err != nil {
		vio = err.Error()
	} else if ok {
		c.decided = c.decided.Add(p)
		c.decisions[p-1] = v
	}
	c.t++
	w.admit(c, depth+1, vio)
}

// admit checks the child state and either schedules it for the next level,
// records its violation, or drops it (duplicate or out of bounds); vio, when
// set, is the step's own violation, which stands in for the state checks.
// Checks run before deduplication and before the depth cut, mirroring the
// depth-first engine this replaced: violations at the depth boundary are
// still reported.
func (w *xworker) admit(c *xstate, depth int, vio string) {
	h := w.hashState(c)
	if vio == "" {
		vio = w.checkState(c)
	}
	if vio != "" {
		if !w.vioFound || h < w.vioHash || (h == w.vioHash && vio < w.vio) {
			w.vioFound, w.vio, w.vioHash = true, vio, h
		}
		w.release(c)
		return
	}
	if depth >= w.e.cfg.MaxDepth {
		w.e.truncated.Store(true)
		w.release(c)
		return
	}
	if !w.e.addSeen(h) {
		w.release(c)
		return
	}
	w.e.states.Add(1)
	w.next = append(w.next, frontierNode{c, h})
}

func (w *xworker) checkState(s *xstate) string {
	m := w.checkMap
	clear(m)
	for set := s.decided; !set.IsEmpty(); {
		p := set.Min()
		set = set.Remove(p)
		m[p] = s.decisions[p-1]
	}
	if v := w.e.cfg.Check(m); v != "" {
		return v
	}
	if w.e.cfg.CheckAutomata != nil {
		return w.e.cfg.CheckAutomata(s.automata)
	}
	return ""
}

// clone copies s into a recycled shell: automata pointers are shared (the
// stepping slot is replaced by the caller), queues and decisions are copied
// into retained backing arrays.
func (w *xworker) clone(s *xstate) *xstate {
	c := w.get()
	c.t = s.t
	c.decided = s.decided
	c.automata = append(c.automata[:0], s.automata...)
	c.decisions = append(c.decisions[:0], s.decisions...)
	if cap(c.queues) < len(s.queues) {
		c.queues = make([][]xmsg, len(s.queues))
	}
	c.queues = c.queues[:len(s.queues)]
	for i, q := range s.queues {
		c.queues[i] = append(c.queues[i][:0], q...)
	}
	return c
}

func (w *xworker) get() *xstate {
	if n := len(w.free); n > 0 {
		st := w.free[n-1]
		w.free = w.free[:n-1]
		return st
	}
	return &xstate{}
}

func (w *xworker) release(s *xstate) {
	w.free = append(w.free, s)
}

// hashState canonicalizes s to the worker's scratch buffer and hashes it.
// Queue contents enter as per-queue sums of the messages' cached hashes —
// an order-independent multiset hash, which is what makes every counter and
// the violation choice independent of the discovery path. Variable-width
// encodings are delimited by trailing lengths.
func (w *xworker) hashState(s *xstate) uint64 {
	b := w.enc[:0]
	t := s.t
	if tcap := w.e.cfg.TimeCap; tcap > 0 && t > tcap {
		t = tcap
	}
	b = AppendUint64(b, uint64(t))
	for _, a := range s.automata {
		start := len(b)
		b = AppendValue(b, a)
		b = AppendUint64(b, uint64(len(b)-start))
	}
	b = s.decided.AppendWords(b)
	for set := s.decided; !set.IsEmpty(); {
		p := set.Min()
		set = set.Remove(p)
		start := len(b)
		b = AppendValue(b, s.decisions[p-1])
		b = AppendUint64(b, uint64(len(b)-start))
	}
	for i, q := range s.queues {
		if len(q) == 0 {
			continue
		}
		var sum uint64
		for j := range q {
			sum += q[j].h
		}
		b = append(b, byte(i))
		b = AppendUint64(b, sum)
		b = AppendUint64(b, uint64(len(q)))
	}
	w.enc = b
	return hash64(b)
}

func (w *xworker) msgHash(from dist.ProcID, layer Layer, payload any) uint64 {
	b := append(w.menc[:0], byte(from), byte(from>>8), byte(layer))
	b = AppendValue(b, payload)
	w.menc = b
	return hash64(b)
}
