package fd

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/sim"
)

// OmegaOracle is a valid Ω history: eventually every process is given the
// same correct leader, min(Correct). Before the stabilization time it
// rotates through the alive processes (arbitrary wrong outputs are allowed
// finitely often).
type OmegaOracle struct {
	F    *dist.FailurePattern
	Stab dist.Time
}

// Output implements the history H(p, t); the range is dist.ProcID.
func (o *OmegaOracle) Output(p dist.ProcID, t dist.Time) any {
	alive := o.F.AliveAt(t)
	if t >= o.Stab || alive.IsEmpty() {
		return o.F.Correct().Min()
	}
	return alive.Nth(int(t) % alive.Len())
}

// CheckOmega verifies that from stabBy on, every correct process is output
// the same correct leader.
func CheckOmega(f *dist.FailurePattern, h sim.History, horizon, stabBy dist.Time) []Violation {
	var out []Violation
	leader := dist.None
	for _, p := range f.Correct().Members() {
		for t := stabBy; t < horizon; t++ {
			raw := h.Output(p, t)
			id, ok := raw.(dist.ProcID)
			if !ok {
				return append(out, Violation{Property: "well-formedness",
					Witness: fmt.Sprintf("H(p%d,%d) has type %T, want ProcID", int(p), int64(t), raw)})
			}
			if leader == dist.None {
				leader = id
			}
			if id != leader {
				out = append(out, Violation{Property: "eventual-leadership",
					Witness: fmt.Sprintf("H(p%d,%d)=p%d, want stable p%d", int(p), int64(t), int(id), int(leader))})
				return out
			}
		}
	}
	if leader != dist.None && !f.IsCorrect(leader) {
		out = append(out, Violation{Property: "eventual-leadership",
			Witness: fmt.Sprintf("stable leader p%d is faulty", int(leader))})
	}
	return out
}

// AntiOmegaOracle is a valid anti-Ω history (Zieliński): each query returns
// a process id, and some correct process's id is returned only finitely many
// times. The shielded process, max(Correct), is the one protected after the
// stabilization time; before it, outputs rotate arbitrarily.
type AntiOmegaOracle struct {
	F    *dist.FailurePattern
	Stab dist.Time
}

// Output implements the history H(p, t); the range is dist.ProcID.
func (o *AntiOmegaOracle) Output(p dist.ProcID, t dist.Time) any {
	if t < o.Stab {
		return dist.ProcID(1 + ((int64(t) + int64(p)) % int64(o.F.N())))
	}
	sh := o.F.Correct().Max()
	out := o.F.All().Remove(sh).Min()
	if out == dist.None {
		return sh // degenerate n=1 system
	}
	return out
}

// CheckAntiOmega verifies that over [stabBy, horizon) the outputs observed
// at correct processes exclude at least one correct process.
func CheckAntiOmega(f *dist.FailurePattern, h sim.History, horizon, stabBy dist.Time) []Violation {
	var returned dist.ProcSet
	for _, p := range f.Correct().Members() {
		for t := stabBy; t < horizon; t++ {
			raw := h.Output(p, t)
			id, ok := raw.(dist.ProcID)
			if !ok {
				return []Violation{{Property: "well-formedness",
					Witness: fmt.Sprintf("H(p%d,%d) has type %T, want ProcID", int(p), int64(t), raw)}}
			}
			returned = returned.Add(id)
		}
	}
	if f.Correct().SubsetOf(returned) {
		return []Violation{{Property: "finitely-returned",
			Witness: fmt.Sprintf("every correct process in %v is still being returned after t=%d", f.Correct(), int64(stabBy))}}
	}
	return nil
}

// ClampCrashedToPi wraps a Σ_S history so that crashed members of S output
// Π, matching the paper's convention for crashed processes. Emulated
// histories recorded from traces freeze at the last pre-crash output; this
// wrapper restores the convention for property checking while keeping all
// pre-crash outputs (which the Intersection property ranges over) intact.
func ClampCrashedToPi(h sim.History, f *dist.FailurePattern, s dist.ProcSet) sim.History {
	return clampedHistory{h: h, f: f, s: s}
}

type clampedHistory struct {
	h sim.History
	f *dist.FailurePattern
	s dist.ProcSet
}

func (c clampedHistory) Output(p dist.ProcID, t dist.Time) any {
	if c.s.Contains(p) && !c.f.Alive(p, t) {
		return TrustList{Trusted: c.f.All()}
	}
	return c.h.Output(p, t)
}
