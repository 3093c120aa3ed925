// Command bench is the repository's benchmark. It runs the public sweep
// entry points users run — register.StoreSweep and consensus.Sweep, on one
// worker — verifies every run, and reports end-to-end metrics; with
// -trace 1 it instead rebuilds the same runs from their public pieces,
// times the calls into each layer from outside, and reports per-layer
// metrics. See README.md for the workloads, the metrics and their units.
//
//	bash bench/run.sh --workload store-steady --seed 0 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// maxSeed bounds -seed so that seed × (seeds per pass) stays far from
// overflowing the scheduler's int64 seed space.
const maxSeed = 1 << 32

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is one workload's result.
type report struct {
	workload          string
	correct           bool
	attempted, failed int64
	metrics           []metric
	details           map[string]any
}

// errFailed marks a benchmark whose runs failed verification; the result
// is still printed.
var errFailed = errors.New("some runs failed verification")

func main() {
	// One CPU: throughput then counts the garbage collector's work too, and
	// does not depend on whether a second core happens to be idle.
	runtime.GOMAXPROCS(1)
	err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 0, "input seed: shifts the scheduler seed range and the workload generator seed (0 is the baseline)")
	seconds := fs.Float64("seconds", 10, "how long to measure each workload")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass")
	out := fs.String("out", "", "also write the reports to this JSON file")
	spans := fs.String("spans", "", "with -trace 1, write the first seeds' layer spans to this trace-event JSON file")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w (flags: -workload, -seed, -seconds, -trace, -out, -spans)", err)
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *seed < 0 || *seed > maxSeed:
		return fmt.Errorf("-seed %d outside [0, %d]", *seed, int64(maxSeed))
	case !(*seconds > 0 && *seconds <= 3600):
		return fmt.Errorf("-seconds %v outside (0, 3600]", *seconds)
	case *traceMode != 0 && *traceMode != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", *traceMode)
	case *spans != "" && *traceMode != 1:
		return fmt.Errorf("-spans needs -trace 1")
	}
	chosen := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		chosen = []workload{w}
	}

	var log *spanLog
	if *spans != "" {
		log = newSpanLog()
	}
	var reports []report
	for i, w := range chosen {
		if log != nil {
			log.pid = i + 1
		}
		rep, err := measure(w, *seed, *seconds, *traceMode == 1, log)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printTable(stdout, rep)
		reports = append(reports, rep)
	}
	if log != nil {
		if err := writeSpans(*spans, log, chosen); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := writeReports(*out, *seed, reports); err != nil {
			return err
		}
	}
	line, ok, err := resultLine(reports)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, line)
	if !ok {
		return errFailed
	}
	return nil
}

// measure runs one workload's end-to-end or traced pass for -seed seed.
func measure(w workload, seed int64, seconds float64, traced bool, log *spanLog) (report, error) {
	rep := report{workload: w.name}
	if !traced {
		run, err := runEndToEnd(w, seed, seconds)
		if err != nil {
			return rep, err
		}
		rep.metrics, rep.details = run.e2eMetrics()
		for _, r := range run.timed {
			for _, res := range r.res {
				rep.attempted += res.Runs
				rep.failed += res.Failures
			}
		}
		rep.correct = run.err == nil && rep.failed == 0
		rep.details["error"] = errString(run.err)
	} else {
		lp, err := runLayers(w, seed, seconds, log)
		if err != nil {
			return rep, err
		}
		rep.metrics = lp.layerMetrics()
		rep.attempted, rep.failed = lp.st.runs, lp.st.failures
		rep.correct = lp.err == nil && rep.failed == 0
		rep.details = map[string]any{"passes": lp.st.passes, "runs": lp.st.runs, "error": errString(lp.err)}
	}
	lo := seed * w.seeds()
	rep.details["load"] = w.load
	rep.details["seeds"] = fmt.Sprintf("[%d, %d) in %d generated workloads", lo, lo+w.seeds(), w.scripts)
	return rep, nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func printTable(w io.Writer, rep report) {
	fmt.Fprintf(w, "%s  (%s; seeds %s)\n", rep.workload, rep.details["load"], rep.details["seeds"])
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", m.name, m.value, m.unit)
	}
	keys := make([]string, 0, len(rep.details))
	for k := range rep.details {
		if k != "load" && k != "seeds" && k != "error" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-36s %v\n", k, rep.details[k])
	}
	status := "verified"
	if !rep.correct {
		status = fmt.Sprintf("FAILED: %v", rep.details["error"])
	}
	fmt.Fprintf(w, "  %d runs, %d failed: %s\n", rep.attempted, rep.failed, status)
}

// resultLine renders the final JSON line. With several workloads the
// metric names are prefixed by the workload's.
func resultLine(reports []report) (string, bool, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, rep := range reports {
		res.Correct = res.Correct && rep.correct
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		for _, m := range rep.metrics {
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				return "", false, fmt.Errorf("%s: metric %s is %v", rep.workload, m.name, m.value)
			}
			key := m.name
			if len(reports) > 1 {
				key = rep.workload + "." + m.name
			}
			res.Metrics[key] = value{m.value, m.unit}
		}
	}
	b, err := json.Marshal(res)
	return string(b), res.Correct, err
}

func writeReports(path string, seed int64, reports []report) error {
	type entry struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]float64 `json:"metrics"`
		Units     map[string]string  `json:"units"`
		Details   map[string]any     `json:"details"`
	}
	doc := map[string]any{"seed": seed}
	for _, rep := range reports {
		e := entry{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed,
			Metrics: map[string]float64{}, Units: map[string]string{}, Details: rep.details}
		for _, m := range rep.metrics {
			e.Metrics[m.name], e.Units[m.name] = m.value, m.unit
		}
		doc[rep.workload] = e
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeSpans writes the recorded spans in the trace-event JSON format
// (chrome://tracing, Perfetto): one process per workload, one thread per
// seed, times in microseconds.
func writeSpans(path string, log *spanLog, ws []workload) error {
	var b strings.Builder
	b.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i, w := range ws {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"process_name","ph":"M","pid":%d,"args":{"name":%q}}`, i+1, w.name)
	}
	for _, s := range log.spans {
		fmt.Fprintf(&b, `,{"name":%q,"cat":"layer","ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"p":%d,"payload":%q}}`,
			s.name, s.pid, s.seed, float64(s.start)/1e3, float64(s.dur)/1e3, int(s.p), s.payload)
	}
	b.WriteString("]}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
