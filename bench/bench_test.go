package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/agreement"
	"repro/internal/register"
	"repro/internal/sweep"
)

// small shrinks a workload to one generated workload per block and a few
// seeds each: enough runs to cover recoveries, partitions and fallbacks,
// few enough for go test.
func small(w workload) workload {
	w.scripts = reps
	w.perScript = map[string]int64{
		"store-steady":      3,
		"store-contended":   2,
		"store-faults-n128": 1,
		"consensus-faults":  10,
	}[w.name]
	return w
}

// TestTracedPassIsTransparent checks that the wrapped runs the traced pass
// measures are the runs the public sweep makes: the same step and message
// histograms, the same latency histograms, and every run passing the
// sweep's own verification. Otherwise the layer numbers would describe a
// different program.
func TestTracedPassIsTransparent(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := small(w)
			subs, err := w.plan(3, 0, w.scripts)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := subs[0].in.config(false)
			if err != nil {
				t.Fatal(err)
			}
			lp := newLayerPass(cfg.Pattern.N())
			for _, s := range subs {
				want, err := s.in.sweep(s.lo, s.n)
				if err != nil {
					t.Fatal(err)
				}
				if want.Failures > 0 {
					t.Fatalf("the sweep failed %d runs: %v", want.Failures, want.FirstFailErr)
				}
				if _, err := lp.use(s.in); err != nil {
					t.Fatal(err)
				}
				got := sweep.Result{FirstFailSeed: -1}
				for seed := s.lo; seed < s.lo+s.n; seed++ {
					res, err := lp.mirror.Reset(seed).Run()
					if err != nil {
						t.Fatal(err)
					}
					unwrap(res)
					switch in := s.in.(type) {
					case *storeInst:
						err = register.VerifyStoreRunReach(res, in.cfg.Pattern.Correct(), in.masks)
					case *consInst:
						if rep := agreement.Check(in.cfg.Pattern, 1, in.cfg.Proposals, res); !rep.OK() {
							err = fmt.Errorf("%s", rep)
						}
					}
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if _, err := s.in.verify(res); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					s.in.collect(res, &got, &protoCounts{})
				}
				if want.Steps != got.Steps || want.Msgs != got.Msgs || want.Dropped != got.Dropped || want.Duplicated != got.Duplicated {
					t.Fatalf("steps %v msgs %v, the sweep steps %v msgs %v", got.Steps.String(), got.Msgs.String(), want.Steps.String(), want.Msgs.String())
				}
				if want.Lat != got.Lat || want.LatClean != got.LatClean || want.LatFaulted != got.LatFaulted ||
					want.FastReads != got.FastReads || want.Fallbacks != got.Fallbacks {
					t.Fatalf("latency %v, the sweep %v", got.Lat.String(), want.Lat.String())
				}
			}

			// The whole traced pass agrees with the sweep and leaves the
			// runner a share of the run between 0 and 1.
			lp, err = runLayers(w, 3, 1e-9, nil)
			if err != nil {
				t.Fatal(err)
			}
			if lp.err != nil {
				t.Fatal(lp.err)
			}
			self, total := lp.tu.m.tickWork(lp.clockNs)
			if !(total > 0) || self < 0 || self > total {
				t.Fatalf("runner self time %v of %v", self, total)
			}
		})
	}
}

// benchmarkFile is BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkFileMatchesProgram guards against drift between
// BENCHMARK.json and what the program emits: the declared workloads are
// the program's, names are well formed and used once, and every workload
// emits exactly the declared metrics with the declared units in both modes.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := loadBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics", len(b.EndToEnd), len(b.PerLayer))
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q, want %q with a why of at most 200 characters", i, w.Name, workloads[i].name)
		}
	}
	e2e, layer := map[string]string{}, map[string]string{}
	var setupBound, maxOther float64
	for _, m := range b.EndToEnd {
		check(m.Name)
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s: unit %q, better %q", m.Unit, m.Better)
			}
		} else {
			maxOther = math.Max(maxOther, m.Bound)
		}
	}
	if setupBound == 0 || setupBound < maxOther {
		t.Errorf("setup_s must be declared with the largest bound (%v < %v)", setupBound, maxOther)
	}
	for _, m := range b.PerLayer {
		check(m.Name)
		layer[m.Name] = m.Unit
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				want := e2e
				if traced {
					want = layer
				}
				rep, err := measure(small(w), 0, 1e-9, traced, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.correct || rep.attempted < 1 {
					t.Fatalf("traced=%v: correct=%v after %d runs: %v", traced, rep.correct, rep.attempted, rep.details["error"])
				}
				got := map[string]string{}
				for _, m := range rep.metrics {
					got[m.name] = m.unit
					if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
						t.Errorf("traced=%v: %s = %v", traced, m.name, m.value)
					}
				}
				for n, u := range want {
					if got[n] != u {
						t.Errorf("traced=%v: %s emitted with unit %q, declared %q", traced, n, got[n], u)
					}
				}
				for n := range got {
					if _, ok := want[n]; !ok {
						t.Errorf("traced=%v: %s emitted but not declared", traced, n)
					}
				}
			}
		})
	}
}

// TestBadInputIsAnError checks that malformed arguments end in an error,
// never a panic or a run.
func TestBadInputIsAnError(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--seed", "-1"},
		{"--seed", "99999999999"},
		{"--seed", "x"},
		{"--seconds", "0"},
		{"--seconds", "NaN"},
		{"--trace", "2"},
		{"--spans", "s.json"},
		{"--no-such-flag"},
		{"extra"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}

// TestQuantiles pins the statistics the report uses: quartiles as Python's
// statistics.quantiles(v, n=4) computes them, and histogram quantiles that
// round down to sweep.Hist.Quantile.
func TestQuantiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	var h sweep.Hist
	for v := int64(0); v < 5000; v += 1 + v/7 {
		h.Observe(v % 311)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		if got, want := quantile(&h, q), h.Quantile(q); int64(math.Floor(got)) != want {
			t.Errorf("quantile(%v) = %v, Hist.Quantile = %d", q, got, want)
		}
	}
}
