// Shared flag-parsing helpers for the sharing subcommands: the list
// grammars (-crash, -crashshard, -recover, -partition), the fault flags that
// store and consensus share, and the few rules that guard the CLI's own
// composition. Range rules on a config's fields live in the package whose
// entry point consumes it; these helpers only turn user text into values.
package main

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/register"
	"repro/internal/sim"
)

// newPattern builds the failure-free pattern of a system size, rejecting a
// size that dist would panic on.
func newPattern(n int) (*dist.FailurePattern, error) {
	if n < 1 || n > dist.MaxProcs {
		return nil, fmt.Errorf("-n %d outside 1..%d", n, dist.MaxProcs)
	}
	return dist.NewFailurePattern(n), nil
}

// crashPattern builds the failure pattern for an n-process system with the
// -crash list applied — the combination every run-style subcommand starts
// from.
func crashPattern(n int, spec string) (*dist.FailurePattern, error) {
	f, err := newPattern(n)
	if err != nil {
		return nil, err
	}
	if err := parseCrash(f, "-crash", spec); err != nil {
		return nil, err
	}
	return f, nil
}

// parseCrash applies a crash list to the pattern; name is what its errors
// call the list. Entries are comma-separated; each is a process number with
// an optional crash time: "3,4" crashes p3 and p4 at time 0, "3@40,4"
// crashes p3 at time 40 and p4 at time 0.
func parseCrash(f *dist.FailurePattern, name, spec string) error {
	err := parseTimedList(name, spec, "process", 1, f.N(), false, func(p int, t dist.Time) error {
		f.CrashAt(dist.ProcID(p), t)
		return nil
	})
	if err == nil && !f.InEnvironment() {
		return fmt.Errorf("%s list kills every process", name)
	}
	return err
}

// parseShardCrash applies a -crashshard list to the pattern. Entries are
// comma-separated like -crash, but name shards: "1" crashes every member of
// shard 1's replica group at time 0, "1@40,2" at time 40 and shard 2's at
// time 0 — the whole-group failures that make exactly those shards
// unavailable. A member already crashed by -crash is an error: a process
// crashes at most once.
func parseShardCrash(f *dist.FailurePattern, m *register.ShardMap, spec string) error {
	err := parseTimedList("-crashshard", spec, "shard", 0, m.Shards()-1, false, func(sh int, t dist.Time) error {
		for _, p := range m.Group(sh).Members() {
			if f.CrashTime(p) != dist.NoCrash {
				return fmt.Errorf("-crashshard %d: p%d already crashed (a process crashes at most once)", sh, int(p))
			}
			f.CrashAt(p, t)
		}
		return nil
	})
	if err == nil && !f.InEnvironment() {
		return fmt.Errorf("-crashshard list %q kills every process", spec)
	}
	return err
}

// parseRecover applies a -recover list to the pattern. Entries are comma-
// separated "p@t": process p rejoins at time t with its volatile state lost.
// It stays outside the correctness set — recovery restores liveness, not
// correctness. Unlike -crash the time is mandatory, and every entry is
// validated against the crash schedule already built by -crash/-crashshard:
// a process that never crashes cannot recover, and the recovery must come
// strictly after the crash.
func parseRecover(f *dist.FailurePattern, spec string) error {
	return parseTimedList("-recover", spec, "process", 1, f.N(), true, func(p int, t dist.Time) error {
		crash := f.CrashTime(dist.ProcID(p))
		if crash == dist.NoCrash {
			return fmt.Errorf("-recover p%d@%d: p%d never crashes (pair it with a -crash/-crashshard entry)", p, int64(t), p)
		}
		if t <= crash {
			return fmt.Errorf("-recover p%d@%d: recovery must come strictly after the crash at %d", p, int64(t), int64(crash))
		}
		f.RecoverAt(dist.ProcID(p), t)
		return nil
	})
}

// parseTimedList is the grammar -crash, -crashshard and -recover share:
// comma-separated entries "i" or "i@t", where i is a noun number in lo..hi
// listed at most once (a process crashes, and recovers, at most once) and t
// a non-negative time, 0 when omitted unless needTime. apply takes each
// entry in order.
func parseTimedList(name, spec, noun string, lo, hi int, needTime bool, apply func(i int, t dist.Time) error) error {
	if spec == "" {
		return nil
	}
	seen := make(map[int]bool)
	for _, entry := range strings.Split(spec, ",") {
		idPart, timePart, timed := strings.Cut(strings.TrimSpace(entry), "@")
		if needTime && !timed {
			return fmt.Errorf("bad %s list %q: entry %q: want p@t (an entry needs its time)", name, spec, entry)
		}
		i, err := strconv.Atoi(idPart)
		if err != nil {
			return fmt.Errorf("bad %s list %q: entry %q: %s must be a number", name, spec, entry, noun)
		}
		if i < lo || i > hi {
			return fmt.Errorf("%s %s %d outside %d..%d", name, noun, i, lo, hi)
		}
		if seen[i] {
			return fmt.Errorf("bad %s list %q: %s %d appears twice", name, spec, noun, i)
		}
		seen[i] = true
		t := int64(0)
		if timed {
			if t, err = strconv.ParseInt(timePart, 10, 64); err != nil || t < 0 {
				return fmt.Errorf("bad %s list %q: entry %q: time must be a non-negative number", name, spec, entry)
			}
		}
		if err := apply(i, dist.Time(t)); err != nil {
			return err
		}
	}
	return nil
}

// parsePartition parses a -partition list into scripted partitions over the
// shard map's replica groups: "i:j@t1-t2" cuts the replica groups of shards
// i and j both ways during [t1, t2), "i>j@t1-t2" cuts only the i→j direction
// (group j's messages still reach group i). A client process inside either
// group is cut off with it; blocked messages park and deliver after the heal
// at t2. t2 may be "inf" for a partition that never heals within the run.
func parsePartition(m *register.ShardMap, spec string) ([]dist.Partition, error) {
	return parsePartitionList(spec, "shards", func(tok string) (dist.ProcSet, error) {
		sh, err := strconv.Atoi(tok)
		if err != nil {
			return dist.ProcSet{}, fmt.Errorf("shards must be numbers")
		}
		if sh < 0 || sh >= m.Shards() {
			return dist.ProcSet{}, fmt.Errorf("shard %d outside 0..%d", sh, m.Shards()-1)
		}
		return m.Group(sh), nil
	})
}

// parseProcPartition parses a -partition list whose sides are single
// processes ("1:2@30-120" symmetric, "1>2@30-120" one-way) — the consensus
// subcommand has no shard map to name replica groups with.
func parseProcPartition(n int, spec string) ([]dist.Partition, error) {
	return parsePartitionList(spec, "processes", func(tok string) (dist.ProcSet, error) {
		p, err := strconv.Atoi(tok)
		if err != nil {
			return dist.ProcSet{}, fmt.Errorf("processes must be numbers")
		}
		if p < 1 || p > n {
			return dist.ProcSet{}, fmt.Errorf("process p%d outside 1..%d", p, n)
		}
		return dist.NewProcSet(dist.ProcID(p)), nil
	})
}

// parsePartitionList is the shared -partition grammar: comma-separated
// entries "a:b@t1-t2" (symmetric) or "a>b@t1-t2" (one-way, blocking only the
// a→b direction), sides resolved by the caller — shard replica groups for
// the store, single processes for consensus.
func parsePartitionList(spec, noun string, side func(tok string) (dist.ProcSet, error)) ([]dist.Partition, error) {
	if spec == "" {
		return nil, nil
	}
	var out []dist.Partition
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		sidesPart, window, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("bad -partition entry %q: want i:j@t1-t2 (or i>j@t1-t2 one-way)", entry)
		}
		oneWay := false
		aPart, bPart, ok := strings.Cut(sidesPart, ":")
		if !ok {
			aPart, bPart, ok = strings.Cut(sidesPart, ">")
			oneWay = true
		}
		if !ok {
			return nil, fmt.Errorf("bad -partition entry %q: want two %s i:j (symmetric) or i>j (one-way) before the @", entry, noun)
		}
		a, err := side(aPart)
		if err != nil {
			return nil, fmt.Errorf("bad -partition entry %q: %v", entry, err)
		}
		b, err := side(bPart)
		if err != nil {
			return nil, fmt.Errorf("bad -partition entry %q: %v", entry, err)
		}
		if !a.Intersect(b).IsEmpty() {
			return nil, fmt.Errorf("bad -partition entry %q: cannot cut %q from itself (the sides overlap)", entry, aPart)
		}
		fromPart, untilPart, ok := strings.Cut(window, "-")
		if !ok {
			return nil, fmt.Errorf("bad -partition entry %q: want a window t1-t2 after the @", entry)
		}
		from, err := strconv.ParseInt(fromPart, 10, 64)
		if err != nil || from < 0 {
			return nil, fmt.Errorf("bad -partition entry %q: t1 must be a non-negative number", entry)
		}
		until := int64(dist.NoCrash)
		if untilPart != "inf" {
			until, err = strconv.ParseInt(untilPart, 10, 64)
			if err != nil || until <= from {
				return nil, fmt.Errorf("bad -partition entry %q: t2 must be a number beyond t1 (or \"inf\")", entry)
			}
		}
		out = append(out, dist.Partition{
			A: a, B: b,
			From: dist.Time(from), Until: dist.Time(until), OneWay: oneWay,
		})
	}
	return out, nil
}

// faultFlags are the fault knobs that store and consensus share: -recover
// on the failure pattern, and -loss, -dup, -delay, -faultseed and
// -partition on the network.
type faultFlags struct {
	recover, partition string
	plan               sim.FaultPlan
}

// bindFaultFlags registers the shared fault flags on fs.
func bindFaultFlags(fs *flag.FlagSet) *faultFlags {
	ff := &faultFlags{}
	fs.StringVar(&ff.recover, "recover", "", "recovery list, e.g. \"5@120\": the crashed process rejoins at t with its volatile state lost (pair each entry with a crash strictly before t; recovered processes stay outside the correctness set)")
	fs.Float64Var(&ff.plan.Loss, "loss", 0, "per-message loss probability in [0,1) (store: requires -retransmit)")
	fs.Float64Var(&ff.plan.Dup, "dup", 0, "per-message duplication probability in [0,1)")
	fs.Int64Var((*int64)(&ff.plan.MaxDelay), "delay", 0, "maximum extra per-message delivery delay in ticks")
	fs.Int64Var(&ff.plan.Seed, "faultseed", 0, "fault-plan seed, mixed with each run's scheduler seed")
	fs.StringVar(&ff.partition, "partition", "", "scripted partitions, e.g. \"1:2@20-60\" symmetric or \"1>2@20-60\" one-way; the sides are shards (store: requires -retransmit, t2 may be \"inf\") or processes (consensus: must heal)")
	return ff
}

// apply adds the -recover list to f and returns the fault plan, with the
// -partition sides resolved by parsePartitions. The plan is nil when no
// network knob is set; any set knob, NaN and negatives included, builds
// it, so the consuming package's FaultPlan.Validate sees and rejects it.
func (ff *faultFlags) apply(f *dist.FailurePattern, parsePartitions func(spec string) ([]dist.Partition, error)) (*sim.FaultPlan, error) {
	if err := parseRecover(f, ff.recover); err != nil {
		return nil, err
	}
	pts, err := parsePartitions(ff.partition)
	if err != nil {
		return nil, err
	}
	if ff.plan.Loss == 0 && ff.plan.Dup == 0 && ff.plan.MaxDelay == 0 && len(pts) == 0 {
		return nil, nil
	}
	plan := ff.plan
	plan.Partitions = pts
	return &plan, nil
}

// openLoopGap turns the -openloop/-rate pair into the store's mean
// inter-arrival gap in client steps: -rate is the offered load in ops per
// client step, the gap its rounded reciprocal (floored at 1 — back-to-back
// arrivals). rate 0 means unset and yields gap 0, the store's own default
// (gap 1). -rate without -openloop is rejected: closed-loop clients have no
// arrival schedule to pace. So is a rate whose gap exceeds budget, the
// run's step budget in ticks: a client takes at most one step per tick, so
// every op after the first would arrive after the run ends.
func openLoopGap(openLoop bool, rate float64, budget int64) (int, error) {
	if math.IsNaN(rate) || math.IsInf(rate, 0) {
		return 0, fmt.Errorf("-rate %g is not a finite number", rate)
	}
	if rate != 0 && !openLoop {
		return 0, fmt.Errorf("-rate needs -openloop (closed-loop clients have no arrival schedule to pace)")
	}
	if rate < 0 {
		return 0, fmt.Errorf("-rate %g must be positive", rate)
	}
	if rate == 0 {
		return 0, nil
	}
	g := math.Round(1 / rate)
	if g > float64(budget) {
		return 0, fmt.Errorf("-rate %g makes the mean arrival gap %.3g client steps, beyond the run's budget of %d steps", rate, g, budget)
	}
	return max(int(g), 1), nil
}

// clientSet validates -clients and returns the store member set
// S = {p1..pClients}.
func clientSet(n, clients int) (dist.ProcSet, error) {
	if clients < 1 || clients > n {
		return dist.ProcSet{}, fmt.Errorf("-clients %d outside 1..%d", clients, n)
	}
	return dist.RangeSet(1, dist.ProcID(clients)), nil
}
