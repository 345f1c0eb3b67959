package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// goldenOpts pins every knob that feeds Table I. The dataset
// generator, the three index builders, and the single-worker linear
// engine are all seed-deterministic, so the instruction-mix
// percentages are exactly reproducible — any drift is a real change
// to the profiling model, not noise.
func goldenOpts() Options {
	return Options{Scale: 0.0012, Queries: 3, VectorLength: 4}
}

func renderTableI(rows []TableIRow) string {
	var b strings.Builder
	b.WriteString("algorithm vector% read% write%\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %.4f %.4f %.4f\n", r.Algorithm, r.VectorPct, r.ReadPct, r.WritePct)
	}
	return b.String()
}

// TestTableIGolden freezes the Table I instruction-mix percentages on
// the deterministic synthetic GloVe workload. Regenerate with
// `go test ./internal/bench -run TableIGolden -update` after an
// intentional change to internal/profile or the index builders, and
// review the diff against the paper's figures (Linear 54.75/45.23/0.44
// etc.) before committing.
func TestTableIGolden(t *testing.T) {
	got := renderTableI(TableI(goldenOpts()))
	path := filepath.Join("testdata", "tablei.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Table I instruction mix drifted from golden.\ngot:\n%swant:\n%s"+
			"If the profiling model changed intentionally, rerun with -update.", got, want)
	}
}

// TestTableIGoldenDeterministic guards the premise of the golden test:
// two fresh runs must agree bit-for-bit.
func TestTableIGoldenDeterministic(t *testing.T) {
	a := renderTableI(TableI(goldenOpts()))
	b := renderTableI(TableI(goldenOpts()))
	if a != b {
		t.Fatalf("Table I not deterministic:\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}
