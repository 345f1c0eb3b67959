// Command spine is the repository's benchmark: it stands the query
// server up in-process, drives one of four workloads through the typed
// client over loopback HTTP, checks every answer, and prints
// client-visible metrics (--trace 0) or a per-layer breakdown
// (--trace 1). See README.md beside this file.
//
//	spine --workload linear_single --seed 1 --seconds 18 --trace 0
//	spine --workload pq_single --trace 1
//	spine --compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: linear_single, linear_batch16, pq_single or mixed_rw")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 18, "length of the measured windows, all together")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and layer probes")
	smoke := flag.Bool("smoke", false, "tiny sizes and one short window per phase: exercises the code, measures nothing")
	out := flag.String("out", "", "also append the full result (envelope, windows, metrics) to this JSON file, for --compare")
	compare := flag.Bool("compare", false, "compare two --out files given as arguments, with the bounds of ./BENCHMARK.json, and exit 1 if the second is worse")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: spine --compare a.json b.json")
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "compare: %v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	w, ok := findWorkload(*name)
	if !ok {
		fatal(2, "unknown --workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		fatal(2, "--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatal(2, "--seconds must be positive")
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	run := runConfig{w: w, sc: sc, seed: *seed, measure: time.Duration(*seconds * float64(time.Second)), smoke: *smoke}

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(context.Background(), run)
	} else {
		res, err = runEndToEnd(context.Background(), run)
	}
	if err != nil {
		fatal(1, "%s: %v", w.name, err)
	}
	res.print(os.Stdout)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fatal(1, "%v", err)
		}
	}
	// The last line of standard output is the machine-read summary.
	line, err := json.Marshal(res.summary())
	if err != nil {
		fatal(1, "encode summary: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "spine: %s: incorrect: %s\n", w.name, res.Why)
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spine: "+format+"\n", args...)
	os.Exit(code)
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one invocation measured.
type result struct {
	Envelope  envelope               `json:"envelope"`
	Correct   bool                   `json:"correct"`
	Why       string                 `json:"why,omitempty"` // first reason the run is incorrect
	Attempted int                    `json:"attempted"`     // operations, a 16-query batch counting 16
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Counts    map[string]int         `json:"counts,omitempty"` // sample counts behind the timed metrics
	Setups    []float64              `json:"setups_s,omitempty"`
	Windows   []window               `json:"windows"`
	order     []string               // metric names in print order
}

func newResult(env envelope) *result {
	return &result{Envelope: env, Correct: true, Metrics: map[string]metricValue{}, Counts: map[string]int{}}
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.incorrect(fmt.Errorf("metric %s is %v", name, v))
		v = 0
	}
	if _, seen := r.Metrics[name]; !seen {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *result) incorrect(err error) {
	if err == nil {
		return
	}
	if r.Correct {
		r.Why = err.Error()
	}
	r.Correct = false
}

func (r *result) tally(attempted, failed int, firstErr error) {
	r.Attempted += attempted
	r.Failed += failed
	r.incorrect(firstErr)
}

// summary is the contract's last line: exactly these four keys.
func (r *result) summary() map[string]any {
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   r.Metrics,
	}
}

func (r *result) print(f io.Writer) {
	env, _ := json.Marshal(r.Envelope)
	fmt.Fprintf(f, "envelope %s\n", env)
	if len(r.Setups) > 0 {
		fmt.Fprintf(f, "setups %.4f s\n", r.Setups)
	}
	for i, w := range r.Windows {
		fmt.Fprintf(f, "window %2d traced=%-5v ops=%-8.1f rate=%9.2f/s search_p50=%8.3fms\n", i, w.Traced, w.Ops, w.Rate, w.SearchP50)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		line := fmt.Sprintf("metric %-28s %14.6g %s", name, m.Value, m.Unit)
		if n, ok := r.Counts[name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(f, line)
	}
	fmt.Fprintf(f, "operations attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
}
