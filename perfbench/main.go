// Command perfbench is the repository's seeded, layered benchmark. One
// invocation runs one workload for a fixed time and prints, as its last
// line, one JSON object with the end-to-end metrics (--trace 0) or the
// per-layer metrics of a separate traced run (--trace 1):
//
//	go -C perfbench build -o ../.bench_build/perfbench . &&
//	  .bench_build/perfbench --workload serve-saturated --seed 1 --seconds 10 --trace 0
//
// perfbench/run.py does that build with every Go cache kept inside the
// checkout. Workloads:
//
//   - compose: the component developer's loop — cold modular build,
//     warm rebuild, cold flattened build, goal-directed assembly —
//     with no serving.
//   - serve-saturated: a closed-loop producer saturating a two-shard
//     compiled-backend fleet through the blocking fleet.Submit.
//   - serve-overload: a fixed-rate open loop at about 1.6x that
//     capacity through the overload controller, with a seeded per-shard
//     kill schedule and redelivery.
//
// Every workload builds the modular and flattened router on the
// interpreter and prices its own trace on the cost model, so the
// paper's cycles/packet figures are measured everywhere. Every packet's
// outcome is checked against a host-side oracle (see nic.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports.
type outcome struct {
	attempted int
	failed    int
	problems  []string // why the run is incorrect, if it is
	// metrics holds every figure the run measured, end-to-end and
	// per-layer alike; the printed line selects by BENCHMARK.json.
	metrics map[string]metric
	// detail carries workload-specific figures and sample counts that
	// are not metrics of every workload.
	detail map[string]any
	// raw holds metrics' values before host-speed scaling.
	raw map[string]float64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, detail: map[string]any{}, raw: map[string]float64{}}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// inject busy-waits this long inside every supervised call: the
	// sensitivity self-check's artificial slowdown of the supervise
	// layer. Zero in every measured run.
	inject time.Duration
}

var workloads = map[string]func(config) (*outcome, error){
	"compose":         runCompose,
	"serve-saturated": func(c config) (*outcome, error) { return runServe(c, saturated) },
	"serve-overload":  func(c config) (*outcome, error) { return runServe(c, overloaded) },
}

func main() {
	var c config
	var traceFlag int
	flag.StringVar(&c.workload, "workload", "", "compose, serve-saturated or serve-overload")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured seconds per pass")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.DurationVar(&c.inject, "inject-supervise", 0, "sensitivity self-check: busy delay per supervised call")
	flag.Parse()
	c.trace = traceFlag == 1

	run, ok := workloads[c.workload]
	if !ok {
		fatalf("unknown workload %q", c.workload)
	}
	if c.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fatalf("need --seconds > 0 and --trace 0|1")
	}
	want, err := readCatalogue("BENCHMARK.json", c.trace)
	if err != nil {
		fatalf("%v", err)
	}
	out, err := run(c)
	if err != nil {
		fatalf("%s: %v", c.workload, err)
	}
	out.set("peak_rss_mb", "MB", peakRSSMB())
	out.detail["provenance"] = map[string]any{
		"workload": c.workload, "seed": c.seed, "seconds": c.seconds, "trace": c.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "inject_supervise_ns": c.inject.Nanoseconds(),
	}
	if err := report(os.Stdout, out, want); err != nil {
		fatalf("%v", err)
	}
}

// readCatalogue loads the metric names and units the printed line must
// carry: BENCHMARK.json's end_to_end list, or per_layer for a traced run.
func readCatalogue(path string, traced bool) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric catalogue: %w", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	list := b.EndToEnd
	if traced {
		list = b.PerLayer
	}
	want := map[string]string{}
	for _, m := range list {
		want[m.Name] = m.Unit
	}
	return want, nil
}

// report prints the detail line, then the result line holding exactly
// the catalogue's metrics. A catalogue metric the run did not measure,
// or measured in another unit, is a benchmark bug and fails the run.
func report(w *os.File, out *outcome, want map[string]string) error {
	sel := map[string]metric{}
	extra := map[string]metric{}
	for name, m := range out.metrics {
		if _, ok := want[name]; ok {
			sel[name] = m
		} else {
			extra[name] = m
		}
	}
	var missing []string
	for name, unit := range want {
		m, ok := sel[name]
		if !ok {
			missing = append(missing, name)
		} else if m.Unit != unit {
			return fmt.Errorf("metric %s measured in %s, catalogue says %s", name, m.Unit, unit)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("catalogue metrics not measured: %v", missing)
	}
	out.detail["other_metrics"] = extra
	out.detail["raw"] = out.raw
	if len(out.problems) > 0 {
		out.detail["problems"] = out.problems
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"detail": out.detail}); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct":   len(out.problems) == 0 && out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   sel,
	})
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
