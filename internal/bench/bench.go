// Package bench is the experiment harness: one regenerator per table
// and figure of the SSAM paper's evaluation (see DESIGN.md §3 for the
// index). Each experiment returns typed rows plus a printable Report;
// cmd/ssam-bench exposes them on the command line and bench_test.go
// wires them into `go test -bench`.
//
// Experiments run on scaled-down synthetic datasets (Options.Scale) —
// the simulator executes every database vector of every query, so
// paper-scale runs are possible but slow — and throughputs that the
// paper reports at full scale are extrapolated linearly in database
// size, which is exact for the bandwidth-bound linear scans.
package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"ssam/internal/dataset"
)

// Options configures an experiment run.
type Options struct {
	// Scale shrinks the paper's datasets (1.0 = full 1M+ vectors).
	Scale float64
	// Queries bounds how many held-out queries each point uses.
	Queries int
	// VectorLength selects the SSAM-n variant where one is needed.
	VectorLength int
}

// Defaults fills zero fields with CI-friendly values.
func (o Options) Defaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.004
	}
	if o.Queries <= 0 {
		o.Queries = 10
	}
	if o.VectorLength == 0 {
		o.VectorLength = 8
	}
	return o
}

// Report is a printable experiment result.
type Report struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Print renders the report as an aligned text table.
func (r Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// WriteCSV renders the report as RFC-4180 CSV with the title as a
// comment line.
func (r Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", r.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTrajectory writes a sweep's trajectory (GraphTrajectory,
// TieredTrajectory) in the committed BENCH_*.json format: indented
// JSON with a trailing newline.
func WriteTrajectory(w io.Writer, t any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func g3(v float64) string { return fmt.Sprintf("%.3g", v) }
func itoa(v int) string   { return fmt.Sprintf("%d", v) }
func u64(v uint64) string { return fmt.Sprintf("%d", v) }

// dataset cache: experiments share generated corpora per (name, scale).
var (
	dsMu    sync.Mutex
	dsCache = map[string]*dataset.Dataset{}
)

func getDataset(spec dataset.Spec) *dataset.Dataset {
	key := fmt.Sprintf("%s/%d", spec.Name, spec.N)
	dsMu.Lock()
	defer dsMu.Unlock()
	if ds, ok := dsCache[key]; ok {
		return ds
	}
	ds := dataset.Generate(spec)
	dsCache[key] = ds
	return ds
}

// paperN returns the full-scale database size for a workload name.
func paperN(name string) int {
	switch name {
	case "glove":
		return dataset.GloVeN
	case "gist":
		return dataset.GIST_N
	case "alexnet":
		return dataset.AlexNetN
	}
	return 0
}

// extrapolateQPS converts a simulated throughput at simN vectors to
// the paper's full database size (latency linear in N for scans).
func extrapolateQPS(qps float64, simN, fullN int) float64 {
	if fullN <= 0 || simN <= 0 {
		return qps
	}
	return qps * float64(simN) / float64(fullN)
}

func clampQueries(qs [][]float32, n int) [][]float32 {
	if n > 0 && len(qs) > n {
		return qs[:n]
	}
	return qs
}
