package main

import (
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/register"
)

func TestNewPatternBounds(t *testing.T) {
	for _, bad := range []int{0, -1, dist.MaxProcs + 1} {
		if _, err := newPattern(bad); err == nil {
			t.Fatalf("n=%d accepted", bad)
		}
	}
	f, err := newPattern(5)
	if err != nil || f.N() != 5 {
		t.Fatalf("newPattern(5) = %v, %v", f, err)
	}
}

func TestCrashPatternCombinesValidation(t *testing.T) {
	f, err := crashPattern(5, "3@40,4")
	if err != nil {
		t.Fatal(err)
	}
	if f.CrashTime(3) != 40 || f.CrashTime(4) != 0 {
		t.Fatalf("crash times %d/%d", int64(f.CrashTime(3)), int64(f.CrashTime(4)))
	}
	if _, err := crashPattern(0, ""); err == nil {
		t.Fatal("bad n must fail")
	}
	if _, err := crashPattern(3, "7"); err == nil {
		t.Fatal("bad crash list must fail")
	}
}

func TestParseCrashSpec(t *testing.T) {
	newF := func() *dist.FailurePattern { return dist.NewFailurePattern(5) }

	f := newF()
	if err := parseCrash(f, "-crash", "3@40,4"); err != nil {
		t.Fatal(err)
	}
	if got := f.CrashTime(3); got != 40 {
		t.Fatalf("p3 crash time %d, want 40", int64(got))
	}
	if got := f.CrashTime(4); got != 0 {
		t.Fatalf("p4 crash time %d, want 0", int64(got))
	}
	if f.CrashTime(1) != dist.NoCrash || f.CrashTime(5) != dist.NoCrash {
		t.Fatal("uncrashed processes must stay correct")
	}

	f = newF()
	if err := parseCrash(f, "-crash", " 2 , 5@7 "); err != nil {
		t.Fatalf("spaces around entries must be accepted: %v", err)
	}
	if f.CrashTime(2) != 0 || f.CrashTime(5) != 7 {
		t.Fatalf("got crash times %d, %d", int64(f.CrashTime(2)), int64(f.CrashTime(5)))
	}

	for _, bad := range []string{"x", "3@", "3@x", "3@-1", "@4", "0", "6", "3,,4", "3@1@2"} {
		if err := parseCrash(newF(), "-crash", bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}

	// Duplicate process entries must be rejected instead of silently
	// registering two crash events for one process.
	for _, dup := range []string{"3,3", "3,3@40", "2@10,2@20", "1, 1"} {
		err := parseCrash(newF(), "-crash", dup)
		if err == nil || !strings.Contains(err.Error(), "twice") {
			t.Fatalf("duplicate spec %q: err=%v", dup, err)
		}
	}

	// Timed crashes alone must not trip the kills-everyone guard: a process
	// crashing at t > 0 is still faulty.
	if err := parseCrash(newF(), "-crash", "1,2,3,4,5@100"); err == nil {
		t.Fatal("crashing every process (even late) must be rejected")
	}
}

func TestParseShardCrash(t *testing.T) {
	m, err := register.NewShardMap(6, 6, 3) // groups {1,4} {2,5} {3,6}
	if err != nil {
		t.Fatal(err)
	}
	newF := func() *dist.FailurePattern { return dist.NewFailurePattern(6) }

	f := newF()
	if err := parseShardCrash(f, m, "1@40"); err != nil {
		t.Fatal(err)
	}
	if f.CrashTime(2) != 40 || f.CrashTime(5) != 40 {
		t.Fatalf("shard 1 group crash times %d/%d, want 40/40",
			int64(f.CrashTime(2)), int64(f.CrashTime(5)))
	}
	if f.Correct() != dist.NewProcSet(1, 3, 4, 6) {
		t.Fatalf("correct set %v after shard crash", f.Correct())
	}

	f = newF()
	if err := parseShardCrash(f, m, ""); err != nil || !f.Faulty().IsEmpty() {
		t.Fatalf("empty spec must be a no-op: %v %v", err, f.Faulty())
	}
	if err := parseShardCrash(newF(), m, "0"); err != nil {
		t.Fatalf("time-0 group crash rejected: %v", err)
	}

	for _, bad := range []string{"x", "3", "-1", "1@x", "1@-2", "1@2@3"} {
		if err := parseShardCrash(newF(), m, bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}

	// Overlap with -crash: a group member already crashed is an error, not
	// a silent re-time.
	f = newF()
	if err := parseCrash(f, "-crash", "5@10"); err != nil {
		t.Fatal(err)
	}
	if err := parseShardCrash(f, m, "1"); err == nil || !strings.Contains(err.Error(), "already crashed") {
		t.Fatalf("overlapping crash specs: err=%v", err)
	}

	// Killing the last alive processes must trip the environment guard.
	two, err := register.NewShardMap(2, 2, 1) // one shard, group {1,2}
	if err != nil {
		t.Fatal(err)
	}
	if err := parseShardCrash(dist.NewFailurePattern(2), two, "0"); err == nil {
		t.Fatal("crashing the only group of a 2-process system must be rejected")
	}
}

func TestParseShardCrashLists(t *testing.T) {
	m, err := register.NewShardMap(6, 6, 3) // groups {1,4} {2,5} {3,6}
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec string
		want string // "" = accept
	}{
		{"two shards timed", "1@40,2", ""},
		{"whitespace tolerated", " 1@40 , 2 ", ""},
		{"duplicate shard", "1,1", "appears twice"},
		{"duplicate shard timed", "1@40,1@90", "appears twice"},
		{"duplicate after others", "0,2,0@10", "appears twice"},
		{"bad entry in list", "1,x", "must be a number"},
		{"out of range in list", "1,3", "outside 0..2"},
		{"all shards dead", "0,1,2", "kills every process"},
	}
	for _, tc := range cases {
		f := dist.NewFailurePattern(6)
		err := parseShardCrash(f, m, tc.spec)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: %q rejected: %v", tc.name, tc.spec, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %q: got %v, want error containing %q", tc.name, tc.spec, err, tc.want)
		}
	}

	// The timed list must apply each entry's own time.
	f := dist.NewFailurePattern(6)
	if err := parseShardCrash(f, m, "1@40,2"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p    dist.ProcID
		want int64
	}{{2, 40}, {5, 40}, {3, 0}, {6, 0}} {
		if got := int64(f.CrashTime(tc.p)); got != tc.want {
			t.Errorf("p%d crash time %d, want %d", int(tc.p), got, tc.want)
		}
	}
	if f.CrashTime(1) != dist.NoCrash || f.CrashTime(4) != dist.NoCrash {
		t.Error("shard 0's group must survive")
	}
}

func TestParsePartition(t *testing.T) {
	m, err := register.NewShardMap(6, 6, 3) // groups {1,4} {2,5} {3,6}
	if err != nil {
		t.Fatal(err)
	}

	pts, err := parsePartition(m, "")
	if err != nil || pts != nil {
		t.Fatalf("empty spec must be a no-op: %v %v", pts, err)
	}

	pts, err = parsePartition(m, "1:2@20-60")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d partitions, want 1", len(pts))
	}
	pt := pts[0]
	if pt.A != m.Group(1) || pt.B != m.Group(2) || pt.From != 20 || pt.Until != 60 {
		t.Fatalf("partition %+v does not match spec", pt)
	}
	if err := pt.Validate(6); err != nil {
		t.Fatalf("parsed partition invalid: %v", err)
	}

	pts, err = parsePartition(m, "0:1@5-inf, 1:2@20-60")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Until != dist.NoCrash || pts[1].Until != 60 {
		t.Fatalf("comma list mis-parsed: %+v", pts)
	}

	for _, tc := range []struct {
		spec string
		want string
	}{
		{"1:2", "want i:j@t1-t2"},
		{"12@0-5", "two shards"},
		{"a:b@0-5", "must be numbers"},
		{"1:3@0-5", "outside 0..2"},
		{"-1:2@0-5", "outside 0..2"},
		{"1:1@0-5", "from itself"},
		{"1:2@0", "window t1-t2"},
		{"1:2@-1-5", "non-negative"},
		{"1:2@9-9", "beyond t1"},
		{"1:2@9-3", "beyond t1"},
		{"1:2@9-x", "beyond t1"},
	} {
		if _, err := parsePartition(m, tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %q: got %v, want error containing %q", tc.spec, err, tc.want)
		}
	}
}

// TestParseRecover pins the paired validation against the crash schedule: a
// recovery needs a prior -crash/-crashshard entry strictly before its time,
// an explicit time of its own, and at most one entry per process.
func TestParseRecover(t *testing.T) {
	newF := func() *dist.FailurePattern {
		f := dist.NewFailurePattern(5)
		if err := parseCrash(f, "-crash", "3@40,4"); err != nil {
			t.Fatal(err)
		}
		return f
	}

	f := newF()
	if err := parseRecover(f, ""); err != nil {
		t.Fatalf("empty spec must be a no-op: %v", err)
	}
	if f.HasRecoveries() {
		t.Fatal("empty spec registered a recovery")
	}
	if err := parseRecover(f, " 3@120 , 4@5 "); err != nil {
		t.Fatalf("spaces around entries must be accepted: %v", err)
	}
	if f.RecoverTime(3) != 120 || f.RecoverTime(4) != 5 {
		t.Fatalf("recovery times %d/%d, want 120/5",
			int64(f.RecoverTime(3)), int64(f.RecoverTime(4)))
	}
	// Recovery restores liveness, never correctness.
	if f.Correct().Contains(3) || !f.Alive(3, 200) {
		t.Fatalf("recovered p3: correct=%v alive(200)=%v, want false/true",
			f.Correct().Contains(3), f.Alive(3, 200))
	}

	for _, tc := range []struct {
		spec string
		want string
	}{
		{"3", "needs its time"},
		{"3@", "non-negative"},
		{"x@50", "must be a number"},
		{"3@x", "non-negative"},
		{"3@-1", "non-negative"},
		{"0@50", "outside 1..5"},
		{"6@50", "outside 1..5"},
		{"1@50", "never crashes"},  // p1 is correct
		{"3@40", "strictly after"}, // at the crash
		{"3@39", "strictly after"}, // before the crash
		{"3@0", "strictly after"},
		{"3@120,3@200", "twice"},
	} {
		if err := parseRecover(newF(), tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %q: got %v, want error containing %q", tc.spec, err, tc.want)
		}
	}
}

// TestParsePartitionOneWay pins the asymmetric syntax on the shard grammar:
// "i>j" yields a OneWay partition from i's replica group to j's, composing
// with the symmetric form in one comma list.
func TestParsePartitionOneWay(t *testing.T) {
	m, err := register.NewShardMap(6, 6, 3) // groups {1,4} {2,5} {3,6}
	if err != nil {
		t.Fatal(err)
	}

	pts, err := parsePartition(m, "1>2@20-60")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d partitions, want 1", len(pts))
	}
	pt := pts[0]
	if !pt.OneWay || pt.A != m.Group(1) || pt.B != m.Group(2) || pt.From != 20 || pt.Until != 60 {
		t.Fatalf("one-way partition %+v does not match spec", pt)
	}
	if err := pt.Validate(6); err != nil {
		t.Fatalf("parsed partition invalid: %v", err)
	}

	pts, err = parsePartition(m, "0:1@5-inf, 1>2@20-60")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].OneWay || !pts[1].OneWay {
		t.Fatalf("mixed list mis-parsed: %+v", pts)
	}

	for _, tc := range []struct {
		spec string
		want string
	}{
		{"1>1@0-5", "from itself"},
		{"1>3@0-5", "outside 0..2"},
		{"a>b@0-5", "must be numbers"},
		{"1>2@9-3", "beyond t1"},
		{"1>2", "want i:j@t1-t2"},
	} {
		if _, err := parsePartition(m, tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %q: got %v, want error containing %q", tc.spec, err, tc.want)
		}
	}
}

// TestParseProcPartition covers the consensus-side grammar whose sides are
// single processes instead of shard replica groups.
func TestParseProcPartition(t *testing.T) {
	pts, err := parseProcPartition(5, "")
	if err != nil || pts != nil {
		t.Fatalf("empty spec must be a no-op: %v %v", pts, err)
	}

	pts, err = parseProcPartition(5, "1:2@30-120, 2>3@10-50")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d partitions, want 2", len(pts))
	}
	if pts[0].OneWay || pts[0].A != dist.NewProcSet(1) || pts[0].B != dist.NewProcSet(2) ||
		pts[0].From != 30 || pts[0].Until != 120 {
		t.Fatalf("symmetric entry mis-parsed: %+v", pts[0])
	}
	if !pts[1].OneWay || pts[1].A != dist.NewProcSet(2) || pts[1].B != dist.NewProcSet(3) {
		t.Fatalf("one-way entry mis-parsed: %+v", pts[1])
	}

	for _, tc := range []struct {
		spec string
		want string
	}{
		{"1:2", "want i:j@t1-t2"},
		{"12@0-5", "two processes"},
		{"a:b@0-5", "must be numbers"},
		{"0:2@0-5", "outside 1..5"},
		{"6>1@0-5", "outside 1..5"},
		{"2>2@0-5", "from itself"},
		{"1:2@inf-5", "non-negative"},
		{"1:2@9-9", "beyond t1"},
	} {
		if _, err := parseProcPartition(5, tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %q: got %v, want error containing %q", tc.spec, err, tc.want)
		}
	}
}

// TestStoreFastReadFlagRoundTrip drives the full store subcommand and checks
// -fastread round-trips into the engine and back out: the on run prints the
// fast-read counter line with a nonzero one-phase count, the off run prints
// no such line, and both verify. There is no rejected combination — the
// elision rule only fires on provably-confirmed quorums, so no other flag is
// silently defeated (the composed cases live in TestSubcommandsSucceed).
func TestStoreFastReadFlagRoundTrip(t *testing.T) {
	base := []string{"store", "-n", "5", "-keys", "8", "-shards", "2", "-clients", "2",
		"-window", "2", "-ops", "8", "-seeds", "3", "-write", "0.2"}
	on := captureStdout(t, append(base, "-fastread")...)
	if !strings.Contains(on, "fastreads:") {
		t.Fatalf("-fastread run must print the fast-read counters:\n%s", on)
	}
	if strings.Contains(on, "fastreads: 0 one-phase") {
		t.Fatalf("read-heavy failure-free run elided no write-backs:\n%s", on)
	}
	off := captureStdout(t, base...)
	if strings.Contains(off, "fastreads:") {
		t.Fatalf("two-phase run must not print fast-read counters:\n%s", off)
	}
}

func TestClientSet(t *testing.T) {
	s, err := clientSet(5, 3)
	if err != nil || s != dist.RangeSet(1, 3) {
		t.Fatalf("clientSet(5,3) = %v, %v", s, err)
	}
	for _, bad := range []int{0, -1, 6} {
		if _, err := clientSet(5, bad); err == nil {
			t.Fatalf("clients=%d accepted", bad)
		}
	}
}

func TestOpenLoopGap(t *testing.T) {
	for _, tc := range []struct {
		openLoop bool
		rate     float64
		want     int
		wantErr  bool
	}{
		{false, 0, 0, false},         // both unset: closed loop
		{true, 0, 0, false},          // open loop at the store default (gap 1)
		{true, 1, 1, false},          // one op per step
		{true, 0.25, 4, false},       // gap = round(1/rate)
		{true, 0.3, 3, false},        // rounded, not truncated
		{true, 5, 1, false},          // super-unit rates floor at gap 1
		{false, 0.5, 0, true},        // -rate needs -openloop
		{true, -0.5, 0, true},        // negative rate
		{true, math.NaN(), 0, true},  // not a number
		{true, math.Inf(1), 0, true}, // not finite
		{false, math.NaN(), 0, true}, // not a number, closed loop
		{true, 1e-4, 10_000, false},  // a gap of exactly the budget
		{true, 9e-5, 0, true},        // a gap past the budget
		{true, 1e-300, 0, true},      // a gap past every int: used to wrap to gap 1
	} {
		const budget = 10_000
		got, err := openLoopGap(tc.openLoop, tc.rate, budget)
		if tc.wantErr {
			if err == nil {
				t.Errorf("openLoopGap(%v, %g): expected error", tc.openLoop, tc.rate)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("openLoopGap(%v, %g) = (%d, %v), want %d", tc.openLoop, tc.rate, got, err, tc.want)
		}
	}
}

// TestRaisedCeilings pins the widened bounds: system sizes and shard counts
// past the old single-word limit of 64 are accepted up to the new
// multi-word ceiling of 256, and out-of-range values are rejected with
// errors naming the new limits.
func TestRaisedCeilings(t *testing.T) {
	// -n past 64 is now valid; past MaxProcs is rejected naming 256.
	for _, n := range []int{65, 128, 200, dist.MaxProcs} {
		f, err := newPattern(n)
		if err != nil || f.N() != n {
			t.Fatalf("newPattern(%d) = %v, %v", n, f, err)
		}
	}
	_, err := newPattern(dist.MaxProcs + 1)
	if err == nil || !strings.Contains(err.Error(), "1..256") {
		t.Fatalf("n=%d: got %v, want rejection naming 1..256", dist.MaxProcs+1, err)
	}

	// -crash reaches processes past 64 and still validates against n.
	f, err := crashPattern(128, "100@40,128")
	if err != nil {
		t.Fatal(err)
	}
	if f.CrashTime(100) != 40 || f.CrashTime(128) != 0 {
		t.Fatalf("high-ID crash times %d/%d", int64(f.CrashTime(100)), int64(f.CrashTime(128)))
	}
	if _, err := crashPattern(128, "129"); err == nil {
		t.Fatal("-crash past n must still be rejected")
	}

	// Shard counts past 64 are accepted up to MaxShards; past it, the error
	// names 1..256.
	m, err := register.NewShardMap(128, 256, 128)
	if err != nil || m.Shards() != 128 {
		t.Fatalf("128-shard map: %v, %v", m, err)
	}
	if got := m.Available(dist.FullSet(128)); got.Len() != 128 {
		t.Fatalf("all-correct availability has %d shards, want 128", got.Len())
	}
	_, err = register.NewShardMap(256, 300, register.MaxShards+1)
	if err == nil || !strings.Contains(err.Error(), "1..256") {
		t.Fatalf("shards=%d: got %v, want rejection naming 1..256", register.MaxShards+1, err)
	}

	// -crashshard and -partition validate against the (possibly >64) shard
	// count and still name the index range.
	if err := parseShardCrash(dist.NewFailurePattern(128), m, "100@10"); err != nil {
		t.Fatalf("high shard index rejected: %v", err)
	}
	if err := parseShardCrash(dist.NewFailurePattern(128), m, "128"); err == nil ||
		!strings.Contains(err.Error(), "outside 0..127") {
		t.Fatalf("shard 128 of 128: got %v, want rejection naming 0..127", err)
	}
	if _, err := parsePartition(m, "100:127@0-50"); err != nil {
		t.Fatalf("high-shard partition rejected: %v", err)
	}
	if _, err := parsePartition(m, "0:128@0-50"); err == nil ||
		!strings.Contains(err.Error(), "outside 0..127") {
		t.Fatalf("partition shard 128: got %v, want rejection naming 0..127", err)
	}

	// -clients past 64 follows n.
	if s, err := clientSet(200, 150); err != nil || s.Len() != 150 || s.Max() != 150 {
		t.Fatalf("clientSet(200,150) = %v, %v", s, err)
	}
}

// FuzzParseLists drives the list grammars as the store and consensus
// subcommands compose them — -crash, then -crashshard on a shard map (shard
// form) or nothing (process form), then -recover and -partition through
// faultFlags.apply — and checks that whatever the parsers accept, the
// packages accept: the pattern keeps a correct process, every recovery
// comes strictly after its crash, and every partition and the fault plan
// validate against n. Parsers must never panic.
func FuzzParseLists(f *testing.F) {
	for _, seed := range []struct {
		n, shards                            int
		crash, crashShard, recov, partitions string
		byShard                              bool
	}{
		{5, 1, "3@40,4", "", "3@120,4@5", "1:2@30-120, 2>3@10-50", false},
		{5, 1, " 2 , 5@7 ", "", "", "1:2@inf-5", false},
		{5, 1, "3,3@40", "", "3@39", "2>2@0-5", false},
		{5, 1, "1,2,3,4,5@100", "", "", "", false},
		{5, 1, "3@40,4", "", "3@120,3@200", "0:2@0-5", false},
		{6, 3, "", "1@40,2", "2@50", "1:2@20-60", true},
		{6, 3, "5@10", "1", "", "0:1@5-inf, 1>2@20-60", true},
		{6, 3, "", "0,1,2", "", "1:1@0-5", true},
		{6, 3, "", "1@2@3", "", "1:2@9-3", true},
		{128, 128, "100@40,128", "100@10", "128@50", "100:127@0-50", true},
	} {
		f.Add(seed.n, seed.shards, seed.crash, seed.crashShard, seed.recov, seed.partitions, seed.byShard)
	}
	f.Fuzz(func(t *testing.T, n, shards int, crash, crashShard, recov, partitions string, byShard bool) {
		fp, err := crashPattern(n, crash)
		if err != nil {
			return
		}
		parse := func(spec string) ([]dist.Partition, error) { return parseProcPartition(n, spec) }
		if byShard {
			m, err := register.NewShardMap(n, shards, shards)
			if err != nil {
				return
			}
			if err := parseShardCrash(fp, m, crashShard); err != nil {
				return
			}
			parse = func(spec string) ([]dist.Partition, error) { return parsePartition(m, spec) }
		}
		ff := &faultFlags{recover: recov, partition: partitions}
		plan, err := ff.apply(fp, parse)
		if err != nil {
			return
		}
		if !fp.InEnvironment() {
			t.Fatalf("accepted a pattern with no correct process: %v", fp)
		}
		for p := dist.ProcID(1); int(p) <= n; p++ {
			if r := fp.RecoverTime(p); r != dist.NoCrash && r <= fp.CrashTime(p) {
				t.Fatalf("p%d recovers at %d, not after its crash at %d", int(p), int64(r), int64(fp.CrashTime(p)))
			}
		}
		if plan == nil {
			if partitions != "" {
				t.Fatalf("partition list %q accepted without a plan", partitions)
			}
			return
		}
		for i, pt := range plan.Partitions {
			if err := pt.Validate(n); err != nil {
				t.Fatalf("accepted partition %d %+v: %v", i, pt, err)
			}
		}
		if err := plan.Validate(n); err != nil {
			t.Fatalf("accepted fault plan %+v: %v", plan, err)
		}
	})
}

// captureStdout runs the CLI on args and returns what it printed to stdout,
// failing the test if the run fails. The output must fit the pipe buffer.
func captureStdout(t *testing.T, args ...string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("%v: %v\n%s", args, runErr, out)
	}
	return string(out)
}
