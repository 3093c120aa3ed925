package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestSubcommandsSucceed(t *testing.T) {
	cases := [][]string{
		{"lattice", "-n", "4", "-runs", "1"},
		{"setagreement", "-n", "4"},
		{"setagreement", "-n", "5", "-crash", "3,4"},
		{"kset", "-n", "6", "-k", "2"},
		{"kset", "-n", "6", "-k", "2", "-crash", "5"},
		{"register", "-n", "5"},
		{"store", "-n", "4", "-keys", "4", "-clients", "2", "-window", "2", "-ops", "6", "-seeds", "3", "-workers", "2"},
		{"store", "-n", "5", "-keys", "6", "-clients", "2", "-window", "3", "-ops", "6", "-seeds", "2", "-crash", "5@30"},
		{"store", "-n", "4", "-keys", "4", "-clients", "2", "-window", "1", "-ops", "4", "-seeds", "2", "-write", "0"},
		{"store", "-n", "6", "-keys", "9", "-shards", "3", "-clients", "2", "-window", "2", "-ops", "6", "-seeds", "3", "-workers", "2"},
		{"store", "-n", "6", "-keys", "9", "-shards", "3", "-clients", "2", "-ops", "6", "-seeds", "2", "-crashshard", "2@30"},
		{"store", "-n", "6", "-keys", "8", "-shards", "2", "-clients", "2", "-ops", "6", "-seeds", "2", "-skew", "0"},
		{"store", "-n", "4", "-keys", "4", "-clients", "2", "-window", "2", "-ops", "6", "-seeds", "3", "-piggyback"},
		{"store", "-n", "6", "-keys", "9", "-shards", "3", "-clients", "2", "-window", "2", "-ops", "8", "-seeds", "3",
			"-adaptive", "-maxwindow", "6", "-stall", "8", "-piggyback", "-crashshard", "2@30"},
		{"store", "-n", "4", "-keys", "4", "-clients", "2", "-window", "2", "-ops", "6", "-seeds", "3", "-openloop", "-rate", "0.25"},
		{"store", "-n", "6", "-keys", "8", "-shards", "2", "-clients", "2", "-window", "4", "-ops", "8", "-seeds", "3",
			"-piggyback", "-openloop", "-rate", "0.5"},
		{"store", "-n", "5", "-keys", "8", "-shards", "2", "-clients", "2", "-window", "2", "-ops", "6", "-seeds", "3", "-fastread"},
		{"store", "-n", "6", "-keys", "9", "-shards", "3", "-clients", "2", "-window", "2", "-ops", "6", "-seeds", "2",
			"-fastread", "-piggyback", "-adaptive", "-maxwindow", "6", "-stall", "8", "-crashshard", "2@30"},
		{"store", "-n", "6", "-keys", "9", "-shards", "3", "-clients", "2", "-window", "2", "-ops", "6", "-seeds", "2",
			"-fastread", "-retransmit", "-rto", "16", "-loss", "0.05", "-partition", "1:2@20-80"},
		{"store", "-n", "5", "-keys", "8", "-shards", "2", "-clients", "2", "-window", "2", "-ops", "6", "-seeds", "2",
			"-crash", "5@40", "-recover", "5@120", "-loss", "0.05", "-retransmit"},
		{"store", "-n", "6", "-keys", "9", "-shards", "3", "-clients", "2", "-window", "2", "-ops", "6", "-seeds", "2",
			"-partition", "0>1@20-80", "-retransmit", "-rto", "16"},
		{"store", "-n", "128", "-seeds", "2"}, // one 128-member group: the step budget scales with the group
		// A 500-step mean arrival gap: the client sends and records nothing
		// while it waits, and its run still finishes every op.
		{"store", "-n", "5", "-clients", "1", "-ops", "6", "-seeds", "4", "-workers", "1", "-openloop", "-rate", "0.002"},
		{"consensus", "-n", "4"},
		{"consensus", "-n", "4", "-seeds", "3", "-loss", "0.05", "-dup", "0.05", "-delay", "2"},
		{"consensus", "-n", "5", "-seeds", "2", "-crash", "4@40", "-recover", "4@200", "-loss", "0.05"},
		{"consensus", "-n", "4", "-seeds", "2", "-partition", "1>2@30-120", "-workers", "2"},
		{"counterexample", "lemma7", "-n", "4"},
		{"counterexample", "lemma11", "-n", "5", "-k", "2"},
		{"counterexample", "lemma11", "-n", "6", "-k", "3"}, // n = 2k: the two-halves construction
		{"counterexample", "lemma15", "-n", "3"},
		{"counterexample", "tightness", "-n", "6", "-k", "2"},
		{"emulate", "fig3"},
		{"emulate", "fig5"},
		{"emulate", "fig6"},
		{"majority-sigma", "-n", "5"},
		{"hierarchy", "-n", "5", "-k", "2"},
		{"hierarchy", "-n", "5", "-k", "2", "-runs", "2", "-workers", "2"},
		{"setagreement", "-n", "5", "-crash", "3@10,4"},
		{"explore", "-fig", "fig2", "-n", "3", "-depth", "10"},
		{"explore", "-fig", "fig2", "-n", "3", "-depth", "10", "-crash", "3", "-workers", "4"},
		{"explore", "-fig", "fig4", "-n", "4", "-k", "1", "-depth", "8", "-crash", "3,4"},
		{"sweep", "-fig", "fig2", "-n", "4", "-seeds", "6", "-workers", "2"},
		{"sweep", "-fig", "fig4", "-n", "4", "-k", "1", "-seeds", "4", "-scenarios", ";3@25"},
		{"sweep", "-fig", "consensus", "-n", "4", "-seeds", "4", "-scenarios", "4@15"},
		{"sweep", "-fig", "consensus", "-n", "1", "-seeds", "2"}, // the default scenarios shrink to failure-free
		{"help"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

func TestSubcommandsFail(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus"},
		{"counterexample"},
		{"counterexample", "bogus"},
		{"emulate"},
		{"emulate", "bogus"},
		{"emulate", "fig3", "-n", "1"},        // no pair {p1,p2} in a one-process system
		{"lattice", "-n", "4", "-runs", "-1"}, // would silently run the default seed count
		{"hierarchy", "-n", "5", "-k", "2", "-runs", "-1"}, // would silently run the default seed count
		{"kset", "-n", "4", "-k", "3"},
		{"setagreement", "-n", "3", "-crash", "1,2,3"},
		{"setagreement", "-n", "5", "-crash", "3,3@40"}, // duplicate crash entry
		{"store", "-n", "4", "-clients", "5"},
		{"store", "-n", "4", "-keys", "0"},
		{"store", "-n", "4", "-keys", "2", "-clients", "2", "-ops", "100"},                        // over the per-key workload bound
		{"store", "-n", "5", "-clients", "2", "-crash", "1,2"},                                    // every client crashed: nothing to verify
		{"store", "-n", "4", "-keys", "8", "-shards", "5"},                                        // more shards than processes
		{"store", "-n", "6", "-keys", "4", "-shards", "5"},                                        // more shards than keys
		{"store", "-n", "6", "-keys", "6", "-shards", "3", "-crashshard", "3"},                    // shard index out of range
		{"store", "-n", "6", "-keys", "6", "-shards", "3", "-skew", "0.9"},                        // zipf undefined for s ≤ 1
		{"store", "-n", "6", "-keys", "6", "-shards", "3", "-crash", "2", "-crashshard", "1"},     // p2 crashed twice
		{"store", "-n", "4", "-keys", "4", "-clients", "2", "-window", "0"},                       // window below 1
		{"store", "-n", "4", "-keys", "4", "-clients", "2", "-maxwindow", "8"},                    // controller knob without -adaptive
		{"store", "-n", "4", "-keys", "4", "-clients", "2", "-adaptive", "-maxwindow", "2"},       // cap below start window (default 4)
		{"store", "-n", "4", "-keys", "4", "-clients", "2", "-rate", "0.5"},                       // -rate needs -openloop
		{"store", "-n", "4", "-keys", "4", "-clients", "2", "-openloop", "-rate", "-1"},           // negative rate
		{"store", "-skew", "Inf"},                                                                 // would hang inside rand.Zipf
		{"store", "-skew", "NaN"},                                                                 // would silently draw uniform keys
		{"store", "-write", "NaN"},                                                                // would silently build a read-only workload
		{"store", "-n", "5", "-keys", "8", "-clients", "2", "-recover", "5@120"},                  // recovery without a crash
		{"store", "-n", "5", "-keys", "8", "-clients", "2", "-crash", "5@40", "-recover", "5@30"}, // recovery before the crash
		{"store", "-n", "5", "-keys", "8", "-clients", "2", "-crash", "5@40", "-recover", "5"},    // recovery needs a time
		{"consensus", "-n", "4", "-recover", "4@200"},                                             // recovery without a crash
		{"consensus", "-n", "4", "-loss", "0.05", "-partition", "1:2@10-inf"},                     // consensus needs the partition to heal
		{"consensus", "-n", "4", "-loss", "1.5"},                                                  // loss outside [0,1)
		{"consensus", "-n", "4", "-dup", "NaN"},                                                   // NaN is no probability
		{"consensus", "-n", "4", "-workers", "-1"},                                                // the single run has no pool
		{"consensus", "-n", "4", "-seeds", "0"},                                                   // the single run has no seed range
		{"store", "-n", "4", "-keys", "4", "-clients", "2", "-loss", "NaN", "-retransmit"},        // NaN is no probability
		{"store", "-n", "4", "-keys", "4", "-clients", "2", "-loss", "-0.5", "-retransmit"},       // negative loss
		{"store", "-n", "4", "-keys", "4", "-clients", "2", "-openloop", "-rate", "NaN"},          // non-finite rate
		{"store", "-n", "4", "-keys", "4", "-clients", "2", "-workers", "-1"},                     // would silently become GOMAXPROCS
		{"explore", "-fig", "bogus"},
		{"explore", "-fig", "fig4", "-n", "3", "-k", "2"},
		{"explore", "-fig", "fig2", "-n", "3", "-crash", "3@10"}, // crash at 10 ≥ TimeCap 1
		{"explore", "-fig", "fig2", "-n", "3", "-depth", "-1"},   // no schedule to explore
		{"explore", "-fig", "fig2", "-n", "3", "-states", "0"},   // would silently become the default cap
		{"explore", "-fig", "fig2", "-n", "3", "-workers", "-1"}, // would silently become GOMAXPROCS
		{"counterexample", "lemma7", "-n", "1"},                  // would silently run at n=3
		{"counterexample", "tightness", "-n", "2", "-k", "1"},    // (n−k−1)-set agreement is vacuous
		{"majority-sigma", "-n", "1"},                            // crashes the only process
		{"majority-sigma", "-n", "2"},                            // crashes half the system
		{"sweep", "-fig", "bogus", "-seeds", "2"},
		{"sweep", "-fig", "fig2", "-n", "3", "-seeds", "0"},
		{"sweep", "-fig", "fig2", "-n", "3", "-seeds", "2", "-scenarios", "1,2,3"},
		{"sweep", "-n", "5", "-scenarios", "9"}, // process outside 1..5
		// -n past dist.MaxProcs is a user error, not a panic inside dist.
		{"lattice", "-n", "300"},
		{"hierarchy", "-n", "300", "-k", "2"},
		{"counterexample", "lemma7", "-n", "300"},
		{"counterexample", "lemma11", "-n", "300"},
		{"counterexample", "lemma15", "-n", "300"},
		{"counterexample", "tightness", "-n", "300"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("%v: expected error", args)
		}
	}
}

// TestSubcommandErrorsNameTheCause pins which error a bad flag reports: the
// range error of the flag itself, up front, rather than a rule that pairs
// it with another flag or a failure from inside a sweep worker.
func TestSubcommandErrorsNameTheCause(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"store", "-loss", "2"}, "FaultPlan.Loss"},
		{[]string{"store", "-stalllimit", "100"}, "flag provided but not defined: -stalllimit"},
		{[]string{"sweep", "-n", "5", "-scenarios", "9"}, `-scenarios entry "9": crash process 9 outside 1..5`},
		{[]string{"store", "-openloop", "-rate", "1e-300"}, "beyond the run's budget"},
		{[]string{"lattice", "-n", "300"}, "lattice: need 4 ≤ n ≤ 256"},
		{[]string{"hierarchy", "-n", "300", "-k", "2"}, "hierarchy: need 4 ≤ n ≤ 256"},
		{[]string{"counterexample", "lemma7", "-n", "2"}, "Lemma 7 needs 3 ≤ n ≤ 256"},
		{[]string{"sweep", "-fig", "fig2", "-seed", "-1", "-seeds", "2"}, "seed range"},
		{[]string{"hierarchy", "-n", "5", "-k", "2", "-seed", "-1"}, "seed range"},
		{[]string{"counterexample", "tightness", "-n", "2", "-k", "1"}, "(n−k−1)-set agreement is then vacuous"},
		{[]string{"consensus", "-n", "4", "-workers", "-1"}, "-workers applies only in fault mode"},
		{[]string{"consensus", "-n", "4", "-faultseed", "3"}, "-faultseed applies only in fault mode"},
		{[]string{"setagreement", "-n", "1"}, "Figure 2 needs 2k ≤ n for its active set {p1..p2k}, got k=1 n=1"},
		{[]string{"kset", "-k", "0"}, "Figure 4 needs k ≥ 1, got k=0"},
		{[]string{"kset", "-n", "4", "-k", "3"}, "Figure 4 needs 2k ≤ n for its active set {p1..p2k}, got k=3 n=4"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestSweepFailureNamesSeedOnce pins a failing sweep's error to one
// mention of the first failing seed: the CLI prints it beside the run's
// verdict, and the verdict itself leaves it out.
func TestSweepFailureNamesSeedOnce(t *testing.T) {
	err := run([]string{"consensus", "-n", "5", "-seeds", "3", "-loss", "0.9"})
	if err == nil {
		t.Fatal("90% loss without retransmission let every run decide")
	}
	if got := strings.Count(err.Error(), "seed 1"); got != 1 {
		t.Fatalf("the error names seed 1 %d times, want once: %v", got, err)
	}
}

func TestParseCrash(t *testing.T) {
	if err := run([]string{"setagreement", "-n", "5", "-crash", "2,3,4"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"setagreement", "-n", "5", "-crash", "x"}); err == nil ||
		!strings.Contains(err.Error(), "bad -crash") {
		t.Fatalf("err=%v", err)
	}
}

// TestPackageCommentListsEverySubcommand keeps the package comment's
// subcommand list in step with the subcommand table that usage prints.
func TestPackageCommentListsEverySubcommand(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	doc := file.Doc.Text()
	for _, c := range subcommands {
		if line := fmt.Sprintf("\t%-16s%s\n", c.name, c.summary); !strings.Contains(doc, line) {
			t.Errorf("package comment lacks %q", line)
		}
	}
}

// timing matches the wall-clock part of the sweep and explore summaries.
var timing = regexp.MustCompile(`in \S+ \([^)]* (runs|states)/sec\)`)

// TestSigmaTaskOutputPinned holds the σ-task subcommands (Figure 2, Figure 4
// and the Fig. 5 ∘ Fig. 4 lattice row), the failure-detector hierarchy and
// the counterexamples (the two-run Lemmas 7 and 11, and the two whose
// adversary delays messages: tightness, Lemma 15) to the output recorded in
// testdata/sigma_task_output.golden, with elapsed times and rates masked:
// every run is seeded, so any change to a schedule, a decision or a
// verdict shows up as a diff.
func TestSigmaTaskOutputPinned(t *testing.T) {
	var b strings.Builder
	for _, args := range [][]string{
		{"setagreement"},
		{"setagreement", "-n", "8", "-crash", "3@10,4", "-seed", "7"},
		{"kset", "-n", "6", "-k", "2", "-crash", "5"},
		{"sweep", "-fig", "fig2"},
		{"sweep", "-fig", "fig4"},
		{"explore", "-fig", "fig2"},
		{"explore", "-fig", "fig4"},
		{"counterexample", "tightness"},
		{"counterexample", "lemma15", "-n", "3"},
		{"counterexample", "lemma15", "-n", "8"},
		{"lattice", "-n", "4", "-runs", "2"},
		{"hierarchy", "-n", "5", "-k", "2"},
		{"hierarchy", "-n", "6", "-k", "3", "-runs", "2", "-workers", "2"},
		{"counterexample", "lemma7", "-n", "4"},
		{"counterexample", "lemma11", "-n", "6", "-k", "3"},
	} {
		fmt.Fprintf(&b, "$ sharing %s\n%s", strings.Join(args, " "), captureStdout(t, args...))
	}
	got := timing.ReplaceAllString(b.String(), "in <elapsed> (<rate> $1/sec)")
	want, err := os.ReadFile("testdata/sigma_task_output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("σ-task output differs from testdata/sigma_task_output.golden; got:\n%s", got)
	}
}
