package separation

import (
	"strings"
	"testing"

	"repro/internal/agreement"
	"repro/internal/dist"
	"repro/internal/sim"
)

func TestLemma7DefeatsHeartbeat(t *testing.T) {
	pair := dist.NewProcSet(1, 2)
	for _, patience := range []int{3, 10, 40} {
		cert, err := Lemma7(Lemma7Config{
			N:         3,
			Candidate: HeartbeatCandidate(pair, patience),
			Seed:      int64(patience),
		})
		if err != nil {
			t.Fatalf("patience=%d: %v", patience, err)
		}
		if cert.Property != "intersection" {
			t.Fatalf("patience=%d: got %s, want intersection certificate", patience, cert)
		}
		if !cert.ReplayVerified {
			t.Fatalf("patience=%d: replay not verified: %s", patience, cert)
		}
	}
}

func TestLemma7DefeatsStubborn(t *testing.T) {
	pair := dist.NewProcSet(1, 2)
	cert, err := Lemma7(Lemma7Config{N: 3, Candidate: StubbornCandidate(pair)})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Property != "completeness" {
		t.Fatalf("got %s, want completeness certificate", cert)
	}
}

func TestLemma7DefeatsSigmaRelay(t *testing.T) {
	pair := dist.NewProcSet(1, 2)
	cert, err := Lemma7(Lemma7Config{N: 3, Candidate: SigmaRelayCandidate(pair)})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Property != "completeness" {
		t.Fatalf("got %s, want completeness certificate", cert)
	}
}

func TestLemma7LargerSystems(t *testing.T) {
	for n := 3; n <= 7; n++ {
		pair := dist.NewProcSet(1, 2)
		cert, err := Lemma7(Lemma7Config{N: n, Candidate: HeartbeatCandidate(pair, 8), Seed: int64(n)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if cert.Property != "intersection" {
			t.Fatalf("n=%d: %s", n, cert)
		}
	}
}

func TestLemma11General(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{5, 2}, {6, 2}, {8, 3}} {
		x := dist.RangeSet(1, dist.ProcID(2*tc.k))
		cert, err := Lemma11(Lemma11Config{
			N: tc.n, K: tc.k,
			Candidate: HeartbeatSetCandidate(x, 10),
			Seed:      int64(tc.n),
		})
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if cert.Property != "intersection" && cert.Property != "completeness" {
			t.Fatalf("n=%d k=%d: unexpected certificate %s", tc.n, tc.k, cert)
		}
		if !cert.ReplayVerified && cert.Property == "intersection" {
			t.Fatalf("n=%d k=%d: replay not verified: %s", tc.n, tc.k, cert)
		}
	}
}

func TestLemma11NEquals2K(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{4, 2}, {6, 3}, {8, 4}} {
		x := dist.RangeSet(1, dist.ProcID(tc.n))
		cert, err := Lemma11(Lemma11Config{
			N: tc.n, K: tc.k,
			Candidate: HeartbeatSetCandidate(x, 10),
			Seed:      7,
		})
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if !strings.Contains(cert.Lemma, "n=2k") {
			t.Fatalf("n=%d: wrong construction used: %s", tc.n, cert)
		}
		if cert.Property != "intersection" {
			t.Fatalf("n=%d: %s", tc.n, cert)
		}
	}
}

func TestLemma11RejectsBadParams(t *testing.T) {
	if _, err := Lemma11(Lemma11Config{N: 4, K: 3, Candidate: HeartbeatSetCandidate(dist.RangeSet(1, 6), 5)}); err == nil {
		t.Fatal("expected parameter error for k > n/2")
	}
}

func TestLemma15DefeatsImpatient(t *testing.T) {
	cert, err := Lemma15(Lemma15Config{
		N:         4,
		Candidate: func(p dist.ProcID, n int, v agreement.Value) sim.Automaton { return ImpatientCandidate(p, n, v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Property != "agreement" || !cert.ReplayVerified {
		t.Fatalf("got %s, want replay-verified agreement certificate", cert)
	}
}

func TestLemma15DefeatsDeferring(t *testing.T) {
	for _, patience := range []int{2, 5, 20} {
		cert, err := Lemma15(Lemma15Config{N: 3, Candidate: DeferringCandidate(patience)})
		if err != nil {
			t.Fatalf("patience=%d: %v", patience, err)
		}
		if cert.Property != "agreement" || !cert.ReplayVerified {
			t.Fatalf("patience=%d: %s", patience, cert)
		}
	}
}

func TestLemma15DefeatsEagerMin(t *testing.T) {
	for _, wait := range []int{1, 7, 30} {
		cert, err := Lemma15(Lemma15Config{N: 5, Candidate: EagerMinCandidate(wait)})
		if err != nil {
			t.Fatalf("wait=%d: %v", wait, err)
		}
		if cert.Property != "agreement" || !cert.ReplayVerified {
			t.Fatalf("wait=%d: %s", wait, cert)
		}
	}
}

// selfEcho sends its proposal to every process, itself included, at its
// first step and decides it at its sixth, so its solo run delivers its own
// message.
type selfEcho struct {
	v     agreement.Value
	steps int
}

func (a *selfEcho) Step(e *sim.Env) {
	a.steps++
	switch a.steps {
	case 1:
		e.BroadcastAll(candidateVal{V: a.v, P: e.Self()})
	case 6:
		e.Decide(a.v)
	}
}

// TestLemma15ReplaysSelfDeliveries: the final run replays each solo segment
// after the earlier segments' sends, so a segment's self-delivery must be
// matched under the final run's numbering for the replay to verify.
func TestLemma15ReplaysSelfDeliveries(t *testing.T) {
	cand := func(_ dist.ProcID, _ int, v agreement.Value) sim.Automaton { return &selfEcho{v: v} }
	for n := 2; n <= 4; n++ {
		cert, err := Lemma15(Lemma15Config{N: n, Candidate: cand})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if cert.Property != "agreement" || !cert.ReplayVerified {
			t.Fatalf("n=%d: got %s, want a replay-verified agreement certificate", n, cert)
		}
	}
}

func TestLemma15SystemSizes(t *testing.T) {
	for n := 2; n <= 8; n++ {
		cert, err := Lemma15(Lemma15Config{N: n, Candidate: EagerMinCandidate(5)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if cert.Property != "agreement" {
			t.Fatalf("n=%d: %s", n, cert)
		}
	}
}

func TestTightness(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{4, 1}, {5, 2}, {6, 2}, {6, 3}, {8, 3}, {10, 5}} {
		cert, err := Tightness(TightnessConfig{N: tc.n, K: tc.k, Seed: int64(tc.n + tc.k)})
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if cert.Property != "agreement" {
			t.Fatalf("n=%d k=%d: %s", tc.n, tc.k, cert)
		}
	}
}

// TestEntryPointsRejectOutOfRangeN: every refutation harness rejects a
// system size it cannot build with an error naming its range, instead of a
// panic inside dist (n past MaxProcs) or a silent resize (Lemma 7 at n < 3).
func TestEntryPointsRejectOutOfRangeN(t *testing.T) {
	const n = dist.MaxProcs + 1
	pair := dist.NewProcSet(1, 2)
	for _, tc := range []struct {
		name string
		run  func() (*Certificate, error)
		want string
	}{
		{"Lemma7", func() (*Certificate, error) {
			return Lemma7(Lemma7Config{N: n, Candidate: HeartbeatCandidate(pair, 10)})
		}, "Lemma 7 needs 3 ≤ n ≤ 256"},
		{"Lemma7 n=2", func() (*Certificate, error) {
			return Lemma7(Lemma7Config{N: 2, Candidate: HeartbeatCandidate(pair, 10)})
		}, "Lemma 7 needs 3 ≤ n ≤ 256, got 2"},
		{"Lemma11", func() (*Certificate, error) {
			return Lemma11(Lemma11Config{N: n, K: 2, Candidate: HeartbeatSetCandidate(dist.RangeSet(1, 4), 10)})
		}, "Lemma 11 needs n ≤ 256"},
		{"Lemma15", func() (*Certificate, error) {
			return Lemma15(Lemma15Config{N: n, Candidate: EagerMinCandidate(8)})
		}, "Lemma 15 needs 2 ≤ n ≤ 256"},
		{"Tightness", func() (*Certificate, error) {
			return Tightness(TightnessConfig{N: n, K: 2})
		}, "tightness needs n ≤ 256"},
	} {
		cert, err := tc.run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, %v; want an error containing %q", tc.name, cert, err, tc.want)
		}
	}
}

// TestMalformedShapesAreRejected: a Lemma 7 triple that is not three
// distinct processes of Π, or a Lemma 11 X outside Π, is a setup error —
// each of these shapes used to yield an intersection certificate.
func TestMalformedShapesAreRejected(t *testing.T) {
	pair := dist.NewProcSet(1, 2)
	lemma7 := func(p, q, aux dist.ProcID) func() (*Certificate, error) {
		return func() (*Certificate, error) {
			return Lemma7(Lemma7Config{N: 3, P: p, Q: q, Aux: aux, Candidate: HeartbeatCandidate(pair, 10), Seed: 1})
		}
	}
	lemma11 := func(n int) func() (*Certificate, error) {
		x := dist.NewProcSet(1, 2, 3, 9)
		return func() (*Certificate, error) {
			return Lemma11(Lemma11Config{N: n, K: 2, X: x, Candidate: HeartbeatSetCandidate(x, 10), Seed: 1})
		}
	}
	for _, tc := range []struct {
		name string
		run  func() (*Certificate, error)
		want string
	}{
		{"lemma7 Q = P", lemma7(1, 1, 3), "P, Q and Aux distinct in 1..3"},
		{"lemma7 Aux = Q", lemma7(1, 2, 2), "P, Q and Aux distinct in 1..3"},
		{"lemma7 Aux unset", lemma7(1, 2, 0), "P, Q and Aux distinct in 1..3"},
		{"lemma7 Aux outside Π", lemma7(1, 2, 9), "P, Q and Aux distinct in 1..3"},
		{"lemma11 X ⊄ Π at n=2k", lemma11(4), "X ⊆ Π={p1,p2,p3,p4}"},
		{"lemma11 X ⊄ Π at n>2k", lemma11(5), "X ⊆ Π={p1,p2,p3,p4,p5}"},
	} {
		cert, err := tc.run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, %v; want an error containing %q", tc.name, cert, err, tc.want)
		}
	}
}

// TestTwoRunRejectsMalformedSets: the shared construction refuses every
// shape it cannot turn into an Intersection argument, naming the sets.
func TestTwoRunRejectsMalformedSets(t *testing.T) {
	hist := sigmaConstant(dist.NewProcSet(1, 2), dist.ProcSet{})
	for _, tc := range []struct {
		name          string
		first, second dist.ProcSet
		p, q          dist.ProcID
		want          string
	}{
		{"empty", dist.NewProcSet(1, 3), dist.ProcSet{}, 1, 2, "must be non-empty"},
		{"overlap", dist.NewProcSet(1, 3), dist.NewProcSet(1), 1, 1, "{p1,p3} (r) and {p1} (r′) overlap"},
		{"outside Π", dist.NewProcSet(1, 9), dist.NewProcSet(2), 1, 2, "not inside Π={p1,p2,p3}"},
		{"watched outside", dist.NewProcSet(1, 3), dist.NewProcSet(2), 1, 3, "p3 ∈ {p2} (r′) must lie"},
	} {
		_, err := (&twoRun{
			lemma: "test", n: 3, candidate: HeartbeatCandidate(dist.NewProcSet(1, 2), 10), horizon: 100,
			first: tc.first, p: tc.p, history: hist, second: tc.second, q: tc.q, after: hist,
		}).run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
