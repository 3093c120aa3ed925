package separation

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
)

// forgetfulRuns counts the runs forgetfulCandidate has been instantiated
// in. It lives outside every instance, so a run's automata can tell r from
// r′ without observing anything different.
var forgetfulRuns int

// forgetfulCandidate runs HeartbeatSetCandidate(x, 10) but, from its second
// run on, outputs ∅ at every process: each process sends and observes in r′
// exactly what it did in r, yet output_p(t₁) differs between the two.
func forgetfulCandidate(x dist.ProcSet) EmulatorProgram {
	inner := HeartbeatSetCandidate(x, 10)
	return func(self dist.ProcID, n int) sim.Emulator {
		if self == 1 { // the runner installs p1 first
			forgetfulRuns++
		}
		e := inner(self, n)
		if forgetfulRuns == 1 {
			return e
		}
		return forgetful{e}
	}
}

type forgetful struct{ sim.Emulator }

func (forgetful) Output() any { return fd.TrustList{} }

// TestReplayVerifiedNeedsSameOutput: a replay is verified only if the
// processes of the first run see the same local view in r′ and output_p(t₁)
// in r′ is the one r gave. forgetfulCandidate keeps the views and changes the
// output, so neither lemma's intersection certificate may claim the replay.
func TestReplayVerifiedNeedsSameOutput(t *testing.T) {
	x2 := dist.RangeSet(1, 4)
	for _, tc := range []struct {
		name string
		run  func() (*Certificate, error)
	}{
		{"lemma7", func() (*Certificate, error) {
			return Lemma7(Lemma7Config{N: 3, Candidate: forgetfulCandidate(dist.NewProcSet(1, 2)), Seed: 1})
		}},
		{"lemma11 n>2k", func() (*Certificate, error) {
			return Lemma11(Lemma11Config{N: 5, K: 2, Candidate: forgetfulCandidate(x2), Seed: 7})
		}},
		{"lemma11 n=2k", func() (*Certificate, error) {
			return Lemma11(Lemma11Config{N: 4, K: 2, Candidate: forgetfulCandidate(x2), Seed: 6})
		}},
	} {
		forgetfulRuns = 0
		cert, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cert.Property != "intersection" || cert.ReplayVerified || strings.Contains(cert.String(), "[replay verified]") {
			t.Errorf("%s: got %q, want an intersection certificate without a verified replay", tc.name, cert)
		}
	}
}
