// Package agreement defines the k-set agreement decision task of Chaudhuri
// as used throughout the paper (Section 2.3): every process proposes a value
// and must decide such that (Agreement) at most k distinct values are
// decided, (Termination) every correct process eventually decides, and
// (Validity) every decided value is some process's proposal.
//
// The package provides the value domain shared by all agreement algorithms
// in this repository and the property checker applied to run results.
package agreement

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/sim"
)

// Value is a proposal/decision value. The paper's Figure 2 takes the maximum
// of two values with the convention ⊥ < v for every value v, so the domain
// is ordered and NoValue serves as ⊥.
type Value int64

// NoValue is ⊥: smaller than every proposal, never a valid decision.
const NoValue Value = math.MinInt64

// AppendState implements sim.StateEncoder, putting Value on the explorer's
// binary-keyed fast path (decisions enter every explored state's key).
func (v Value) AppendState(b []byte) []byte {
	return sim.AppendUint64(b, uint64(v))
}

// DistinctProposals assigns every process a unique proposal. Uniqueness
// makes the Agreement count exact and makes Validity violations (a process
// "guessing" a value it never saw) detectable.
func DistinctProposals(n int) []Value {
	out := make([]Value, n)
	for i := range out {
		out[i] = Value((i + 1) * 101)
	}
	return out
}

// Report is the outcome of checking a run against the k-set agreement spec.
type Report struct {
	// Violations lists every property violation found (empty = the run
	// satisfies k-set agreement).
	Violations []string
	// Distinct is the number of distinct decided values.
	Distinct int
	// Decisions maps each process that decided to its decision.
	Decisions map[dist.ProcID]Value
}

// OK reports whether the run satisfied the task.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// String summarizes the report.
func (r Report) String() string {
	if r.OK() {
		return fmt.Sprintf("ok: %d processes decided %d distinct value(s)", len(r.Decisions), r.Distinct)
	}
	return fmt.Sprintf("VIOLATED: %v", r.Violations)
}

// SafetyCheck builds the exhaustive-exploration predicate for sim.Explore:
// Agreement (at most k distinct decided values) and Validity over a partial
// decision map. Termination is a liveness property and has no meaning on
// exploration prefixes, so it is not checked here.
//
// The predicate is deterministic (processes are visited in identity order,
// never map order, so equal decision maps always yield the same witness
// string — the explorer's reproducibility depends on this), safe for
// concurrent use from explorer workers, and allocation-free on the
// no-violation hot path.
func SafetyCheck(k int, proposals []Value) func(map[dist.ProcID]any) string {
	n := len(proposals)
	valid := make(map[Value]bool, n)
	for _, v := range proposals {
		valid[v] = true
	}
	return func(dec map[dist.ProcID]any) string {
		var seen [dist.MaxProcs]Value
		distinct := 0
		for p := dist.ProcID(1); int(p) <= n; p++ {
			raw, ok := dec[p]
			if !ok {
				continue
			}
			v, isVal := raw.(Value)
			if !isVal {
				return fmt.Sprintf("p%d decided %v of type %T, want agreement.Value", int(p), raw, raw)
			}
			if !valid[v] {
				return fmt.Sprintf("validity: p%d decided %d, which no process proposed", int(p), int64(v))
			}
			dup := false
			for i := 0; i < distinct; i++ {
				if seen[i] == v {
					dup = true
					break
				}
			}
			if !dup {
				seen[distinct] = v
				distinct++
			}
		}
		if distinct > k {
			return fmt.Sprintf("agreement: %d distinct values decided, want ≤ %d", distinct, k)
		}
		return ""
	}
}

// Check validates a finished run against k-set agreement with the given
// proposals (indexed by ProcID-1).
func Check(f *dist.FailurePattern, k int, proposals []Value, res *sim.Result) Report {
	rep := Report{Decisions: make(map[dist.ProcID]Value, len(res.Decisions))}

	valid := make(map[Value]bool, len(proposals))
	for _, v := range proposals {
		valid[v] = true
	}

	// Identity order, not map order: one result, one violation text.
	for p := dist.ProcID(1); int(p) <= f.N(); p++ {
		raw, decided := res.Decisions[p]
		if !decided {
			continue
		}
		v, ok := raw.(Value)
		if !ok {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("p%d decided %v of type %T, want agreement.Value", int(p), raw, raw))
			continue
		}
		rep.Decisions[p] = v
		if !valid[v] {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("validity: p%d decided %d, which no process proposed", int(p), int64(v)))
		}
	}

	// Termination: every correct process must have decided within the run.
	// A wrong-typed decision is still a decision, already reported above.
	f.Correct().ForEach(func(p dist.ProcID) {
		if _, ok := res.Decisions[p]; !ok {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("termination: correct process p%d never decided (run ended: %s after %d steps)",
					int(p), res.Reason, res.Steps))
		}
	})

	// Agreement: at most k distinct decided values.
	seen := make(map[Value]bool, len(rep.Decisions))
	for _, v := range rep.Decisions {
		seen[v] = true
	}
	rep.Distinct = len(seen)
	if rep.Distinct > k {
		vals := make([]int64, 0, len(seen))
		for v := range seen {
			vals = append(vals, int64(v))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("agreement: %d distinct values decided %v, want ≤ %d", rep.Distinct, vals, k))
	}
	return rep
}
