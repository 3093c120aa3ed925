package sim

import (
	"sync"

	"repro/internal/dist"
)

// buffers is every buffer a runner sizes for its system: one row per
// process (its inbox and its slots in the per-process table), the payload
// pools (PoolOf), the Result.Automata table and the op log. A Runner embeds
// its set, so each table lives here alone, and the set is boxed once, so
// parking it and taking it back allocates nothing. The rows are one array,
// not a table per field: a runner built right after a GC, as a sweep's
// set-up is, pays for every array it allocates anew.
type buffers struct {
	// procs is indexed by ProcID (slot 0 unused). Rows past its length keep
	// their cleared inbox buffers for a later runner of more processes.
	procs []proc
	pools poolSet
	out   []Automaton // Result.Automata: a copy of the automata made by Run
	ops   []OpEvent   // the run's op log (Result.Ops), truncated only by reset
}

// proc is one process's row: its inbox, its automaton and what the runner
// keeps about it.
type proc struct {
	inbox     inbox
	automaton Automaton
	// emu and quiet are the automaton's Emulator and Quiescent views (nil
	// where it implements neither), resolved by install when the automaton
	// is built or swapped in by a recovery, never per step.
	emu        Emulator
	quiet      Quiescent
	decision   any
	decideTime dist.Time
	lastEmu    any // the Emulator's last recorded output
}

// parked holds the sets of released runners (Runner.Release): every inbox
// empty and cleared up to its capacity, every payload that was queued in it
// back in its pool, and every other field of every row and both tables
// cleared. A new runner takes one instead of regrowing its buffers from
// empty.
var parked sync.Pool

// takeBuffers returns a set sized for n processes: a parked one when there
// is one, its rows grown when there are too few, else a new one.
func takeBuffers(n int) *buffers {
	b, _ := parked.Get().(*buffers)
	if b == nil {
		b = new(buffers)
	}
	if k := cap(b.procs); k < n+1 {
		b.procs = append(b.procs[:k], make([]proc, n+1-k)...)
	}
	b.procs = b.procs[:n+1]
	if cap(b.out) < n {
		b.out = make([]Automaton, n)
	}
	b.out = b.out[:n]
	return b
}

// park clears the set and parks it. In-flight messages give their leased
// payloads back first, as at a Reset (owned: the runner's last run leased
// them), so every pooled payload is home in the set's pools; every inbox
// buffer is cleared up to its capacity and everything else in full, so no
// payload, automaton or decision stays reachable through the set. Rows and
// Result.Automata slots past the lengths were cleared when a longer set
// was parked.
func (b *buffers) park(owned bool) {
	for i := range b.procs {
		x := &b.procs[i]
		x.inbox.wipe(owned)
		clear(x.inbox.buf[:cap(x.inbox.buf)])
		*x = proc{inbox: x.inbox}
	}
	clear(b.out)
	b.ops = b.ops[:0]
	parked.Put(b)
}
