package separation

import (
	"testing"

	"repro/internal/dist"
)

// TestCertificateTextPinned pins the full certificate text of the Lemma 7
// and Lemma 11 constructions for fixed candidates and seeds: every branch
// (stuck in r, stuck in r′, intersection) of every construction, so a
// change to the two-run machinery that shifts a schedule, a witness time or
// a rendered set shows up here byte for byte.
func TestCertificateTextPinned(t *testing.T) {
	pair := dist.NewProcSet(1, 2)
	lemma7 := func(cand EmulatorProgram, seed int64) func() (*Certificate, error) {
		return func() (*Certificate, error) {
			return Lemma7(Lemma7Config{N: 3, Candidate: cand, Seed: seed})
		}
	}
	lemma11 := func(n, k int, cand EmulatorProgram) func() (*Certificate, error) {
		return func() (*Certificate, error) {
			return Lemma11(Lemma11Config{N: n, K: k, Candidate: cand, Seed: int64(n + k)})
		}
	}
	x := func(k int) dist.ProcSet { return dist.RangeSet(1, dist.ProcID(2*k)) }
	for _, tc := range []struct {
		name string
		run  func() (*Certificate, error)
		want string
	}{
		{"lemma7 heartbeat seed 1", lemma7(HeartbeatCandidate(pair, 10), 1),
			"Lemma 7: candidate violates intersection [replay verified] — output_p1(t₁=23)={p1} and output_p2(t₂=47)={p2} are disjoint (replayed prefix gives {p1} at p1 in r′)"},
		{"lemma7 heartbeat seed 2", lemma7(HeartbeatCandidate(pair, 10), 2),
			"Lemma 7: candidate violates intersection [replay verified] — output_p1(t₁=19)={p1} and output_p2(t₂=45)={p2} are disjoint (replayed prefix gives {p1} at p1 in r′)"},
		{"lemma7 heartbeat seed 3", lemma7(HeartbeatCandidate(pair, 10), 3),
			"Lemma 7: candidate violates intersection [replay verified] — output_p1(t₁=23)={p1} and output_p2(t₂=49)={p2} are disjoint (replayed prefix gives {p1} at p1 in r′)"},
		{"lemma7 stubborn", lemma7(StubbornCandidate(pair), 0),
			"Lemma 7: candidate violates completeness — in run r (Correct={p1,p3}, σ silent) output_p1 never became ⊆ {p1,p3} within 4000 steps"},
		{"lemma7 sigma relay", lemma7(SigmaRelayCandidate(pair), 0),
			"Lemma 7: candidate violates completeness — in run r (Correct={p1,p3}, σ silent) output_p1 never became ⊆ {p1,p3} within 4000 steps"},
		// Heartbeats over {p1,p3} satisfy r (p1 and aux p3 hear each other)
		// but leave q = p2 at ⊥ in r′.
		{"lemma7 stuck in r′", lemma7(HeartbeatSetCandidate(dist.NewProcSet(1, 3), 10), 1),
			"Lemma 7: candidate violates completeness [replay verified] — in run r′ (only p2 correct) output_p2 never became ⊆ {p2} within 4000 steps"},
		{"lemma11 n=5 k=2", lemma11(5, 2, HeartbeatSetCandidate(x(2), 10)),
			"Lemma 11: candidate violates intersection [replay verified] — output_p1(t₁=21)={p1} ∩ output_p2(t₂=46)={p2} = ∅"},
		{"lemma11 n=8 k=3", lemma11(8, 3, HeartbeatSetCandidate(x(3), 10)),
			"Lemma 11: candidate violates intersection [replay verified] — output_p1(t₁=28)={p1} ∩ output_p2(t₂=52)={p2} = ∅"},
		{"lemma11 n=5 k=1", lemma11(5, 1, HeartbeatSetCandidate(x(1), 10)),
			"Lemma 11: candidate violates intersection [replay verified] — output_p1(t₁=15)={p1} ∩ output_p2(t₂=39)={p2} = ∅"},
		{"lemma11 n=3 k=1", lemma11(3, 1, HeartbeatSetCandidate(x(1), 10)),
			"Lemma 11: candidate violates intersection [replay verified] — output_p1(t₁=28)={p1} ∩ output_p2(t₂=51)={p2} = ∅"},
		{"lemma11 stuck in r", lemma11(5, 2, StubbornCandidate(x(2))),
			"Lemma 11: candidate violates completeness — in run r (Correct={p1,p5}, σ₂ₖ idle) output_p1 never became ⊆ {p1,p5} within 6000 steps"},
		{"lemma11 stuck in r′", lemma11(5, 2, HeartbeatSetCandidate(dist.NewProcSet(1, 5), 10)),
			"Lemma 11: candidate violates completeness [replay verified] — in run r′ (only p2 correct) output_p2 never became ⊆ {p2} within 6000 steps"},
		{"lemma11 n=2k 4,2", lemma11(4, 2, HeartbeatSetCandidate(x(2), 10)),
			"Lemma 11 (n=2k): candidate violates intersection [replay verified] — output_p1(t₁=21)={p1,p3} ∩ output_p2(t₂=109)={p2,p4} = ∅"},
		{"lemma11 n=2k 6,3", lemma11(6, 3, HeartbeatSetCandidate(x(3), 10)),
			"Lemma 11 (n=2k): candidate violates intersection [replay verified] — output_p1(t₁=26)={p1,p4} ∩ output_p2(t₂=122)={p2,p5} = ∅"},
		{"lemma11 n=2k 8,4", lemma11(8, 4, HeartbeatSetCandidate(x(4), 10)),
			"Lemma 11 (n=2k): candidate violates intersection [replay verified] — output_p1(t₁=27)={p1,p5} ∩ output_p2(t₂=104)={p2,p6} = ∅"},
		{"lemma11 n=2k stuck in r", lemma11(4, 2, StubbornCandidate(x(2))),
			"Lemma 11 (n=2k): candidate violates completeness — in run r (Correct={p1,p3}, history (∅,Π)) output_p1 never became ⊆ {p1,p3} within 6000 steps"},
		{"lemma11 n=2k stuck in r′", lemma11(4, 2, HeartbeatSetCandidate(dist.NewProcSet(1, 3), 10)),
			"Lemma 11 (n=2k): candidate violates completeness [replay verified] — in run r′ (Correct={p2,p4}) output_p2 never became ⊆ {p2,p4} within 6000 steps"},
	} {
		cert, err := tc.run()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := cert.String(); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
