package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"
	"text/tabwriter"
)

// resultFile is what --out accumulates: every run appended to it, any
// workload, traced or not. One file is one side of a comparison.
type resultFile struct {
	Schema string    `json:"schema"`
	Runs   []*result `json:"runs"`
}

const resultSchema = "spine/1"

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

func appendResult(path string, r *result) error {
	f, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &resultFile{Schema: resultSchema}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, r)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, data, 0o644)
}

// values returns the metric's value in every correct untraced run of
// the workload: end-to-end numbers never come from a traced run, and a
// run that failed operations or missed its recall floor has no timing
// worth comparing (shedding load makes the rest look fast).
func (f *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Envelope.Workload == workload && !r.Envelope.Traced && r.Correct {
			out = append(out, m.Value)
		}
	}
	return out
}

// health is what went wrong in one side's untraced runs of a workload.
type health struct{ runs, incorrect, attempted, failed int }

func (f *resultFile) health(workload string) health {
	var h health
	for _, r := range f.Runs {
		if r.Envelope.Workload != workload || r.Envelope.Traced {
			continue
		}
		h.runs++
		h.attempted += r.Attempted
		h.failed += r.Failed
		if !r.Correct {
			h.incorrect++
		}
	}
	return h
}

func (h health) String() string {
	return fmt.Sprintf("%d/%d ops, %d/%d runs", h.failed, h.attempted, h.incorrect, h.runs)
}

// worseThan reports whether h fails a larger share of its operations
// or of its runs than a does. A gain does not count, and is not looked
// at, when more fails than at the parent.
func (h health) worseThan(a health) bool {
	return h.failed*a.attempted > a.failed*h.attempted || h.incorrect*a.runs > a.incorrect*h.runs
}

// manifest is the part of BENCHMARK.json the harness reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// spread is the run-to-run scatter of one side as a share of its
// median: the distance between the quartiles with four runs or more,
// the whole range with two or three, nothing with one.
func spread(vals []float64) float64 {
	switch n := len(vals); {
	case n < 2:
		return 0
	case n < 4:
		return (slices.Max(vals) - slices.Min(vals)) / median(vals)
	}
	return (quantile(vals, 0.75) - quantile(vals, 0.25)) / median(vals)
}

// verdict judges b against a for one metric. worseBy is the relative
// difference of the medians, base a, signed so that positive is worse.
// It is "worse" only past the bound and past the scatter of the runs
// themselves; when the scatter alone exceeds the bound the pair cannot
// show the metric unchanged, and is "unresolved".
func verdict(a, b []float64, m manifestMetric) (worseBy, scatter float64, status string) {
	ma, mb := median(a), median(b)
	worseBy = (mb - ma) / ma
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	scatter = max(spread(a), spread(b))
	switch {
	case worseBy > m.Bound && worseBy > scatter:
		status = "worse"
	case scatter > m.Bound:
		status = "unresolved"
	default:
		status = "ok"
	}
	return worseBy, scatter, status
}

// compareFiles prints, per workload, what failed on each side (failed
// operations, incorrect runs) and, per end-to-end metric, both medians
// of the correct runs, their relative difference with its base, the
// manifest's bound and the verdict. It reports whether any pairing is
// worse; more failures on the second side always are.
func compareFiles(w io.Writer, manifestPath, pathA, pathB string) (anyWorse bool, err error) {
	man, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta (n)\tb (n)\tworse by (base a)\tbound\tscatter\tverdict\n")
	for _, wl := range man.Workloads {
		ha, hb := a.health(wl.Name), b.health(wl.Name)
		status := "ok"
		if hb.worseThan(ha) {
			status, anyWorse = "worse", true
		}
		fmt.Fprintf(tw, "%s\tfailed\t%v\t%v\t\tany\t\t%s\n", wl.Name, ha, hb, status)
		for _, m := range man.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s/%s: %d correct runs in %s, %d in %s", wl.Name, m.Name, len(va), pathA, len(vb), pathB)
			}
			worseBy, scatter, status := verdict(va, vb, m)
			anyWorse = anyWorse || status == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (%d)\t%.6g %s (%d)\t%+.2f%% of %.6g\t%.2f%%\t%.2f%%\t%s\n",
				wl.Name, m.Name, median(va), m.Unit, len(va), median(vb), m.Unit, len(vb),
				100*worseBy, median(va), 100*m.Bound, 100*scatter, status)
		}
	}
	return anyWorse, tw.Flush()
}
