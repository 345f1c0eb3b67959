package ssam

// One conformance table over the engine seam: for every (execution ×
// mode × metric class × storage × mutated-or-not) combination New
// accepts, the staged driver API (WriteQuery/Exec/ReadResult), the
// direct API (Search) and the batch API (SearchBatch) answer bit for
// bit alike, Len tracks the logical dataset, SetChecks accepts or
// rejects by configuration, and a freed region refuses every entry
// point with ErrFreed. It uses only the exported API, so it pins the
// behaviour rather than the engine layout.

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"ssam/internal/obs"
)

const (
	confN, confDim, confBits, confK = 160, 8, 64, 5
)

func confFloats(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n*confDim)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

func confCodes(rng *rand.Rand, n int) []BinaryCode {
	out := make([]BinaryCode, n)
	for i := range out {
		out[i] = NewBinaryCode(confBits)
		for b := 0; b < confBits; b++ {
			out[i].Set(b, rng.Intn(2) == 1)
		}
	}
	return out
}

// confKnob is whether SetChecks has a knob to turn on a built region
// of this configuration.
func confKnob(cfg Config, mutated bool) bool {
	switch {
	case mutated, cfg.Mode == Linear:
		return false
	case cfg.Execution == Device && cfg.Mode == MPLSH:
		return false // the device LSH index has no run-time knob
	}
	return true
}

func TestEngineConformance(t *testing.T) {
	dir := t.TempDir()
	combos := 0
	for _, exec := range []Execution{Host, Device} {
		for mode := Linear; mode <= Quantized; mode++ {
			for metric := Euclidean; metric <= Hamming; metric++ {
				for _, stored := range []bool{false, true} {
					for _, mutated := range []bool{false, true} {
						cfg := Config{
							Metric: metric, Mode: mode, Execution: exec, VectorLength: 4, Vaults: 3,
							Index: IndexParams{Seed: 3, M: 4, Sample: 128, Rerank: 16, Tables: 4, Bits: 3},
						}
						name := fmt.Sprintf("%v/%v/%v", exec, mode, metric)
						if stored {
							cfg.Storage = &Storage{Path: filepath.Join(dir, fmt.Sprintf("%d.tier", combos))}
							name += "/stored"
						}
						dims := confDim
						if metric == Hamming {
							dims = confBits
						}
						r, err := New(dims, cfg)
						if err != nil {
							continue // not a configuration New accepts
						}
						if mutated {
							name += "/mutated"
						}
						combos++
						t.Run(name, func(t *testing.T) { conform(t, r, cfg, mutated) })
					}
				}
			}
		}
	}
	// 2 executions × (4 Linear metrics + 3 stored Linear + 4 Euclidean
	// indexes + 3 Quantized + 3 stored Quantized), each with and without
	// a write attempt.
	if combos != 2*17*2 {
		t.Fatalf("New accepted %d combinations, want %d", combos, 2*17*2)
	}
}

func conform(t *testing.T, r *Region, cfg Config, mutate bool) {
	rng := rand.New(rand.NewSource(11))
	binary := cfg.Metric == Hamming
	const n = confN
	// Rows 0..n-1 are the dataset, row n the upsert, rows n+1.. the queries.
	var (
		fqs    [][]float32
		bqs    []BinaryCode
		upsert func() (uint64, error)
		err    error
	)
	if binary {
		codes := confCodes(rng, n+4)
		err = r.LoadBinary(codes[:n])
		bqs = codes[n+1:]
		upsert = func() (uint64, error) { return r.UpsertBinary(n, codes[n]) }
	} else {
		data := confFloats(rng, n+4)
		row := func(i int) []float32 { return data[i*confDim : (i+1)*confDim] }
		err = r.LoadFloat32(data[:n*confDim])
		fqs = [][]float32{row(n + 1), row(n + 2), row(n + 3)}
		upsert = func() (uint64, error) { return r.Upsert(n, row(n)) }
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Len(); got != n {
		t.Fatalf("Len after load = %d, want %d", got, n)
	}
	if _, err := r.Search(make([]float32, r.Dims()), confK); err == nil {
		t.Fatal("Search before BuildIndex accepted")
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if got := r.Len(); got != n {
		t.Fatalf("Len after build = %d, want %d", got, n)
	}

	mutated := false
	if mutate {
		// Only in-RAM Linear regions take writes; every other engine
		// refuses with the typed error and keeps serving.
		_, err := upsert()
		switch writable := cfg.Mode == Linear && cfg.Storage == nil; {
		case writable && err != nil:
			t.Fatalf("upsert on a Linear region: %v", err)
		case !writable && !errors.Is(err, ErrImmutableEngine):
			t.Fatalf("upsert on an immutable engine: err = %v, want ErrImmutableEngine", err)
		case writable:
			if _, ok, err := r.Delete(0); err != nil || !ok {
				t.Fatalf("Delete(0) = %v, %v", ok, err)
			}
			mutated = true
			if got := r.Len(); got != n { // one row in, one row out
				t.Fatalf("Len after upsert+delete = %d, want %d", got, n)
			}
		}
		if r.Mutable() != mutated {
			t.Fatalf("Mutable() = %v, want %v", r.Mutable(), mutated)
		}
	}

	err = r.SetChecks(7)
	if want := confKnob(cfg, mutated); (err == nil) != want {
		t.Fatalf("SetChecks accepted = %v (err %v), want %v", err == nil, err, want)
	}

	// Direct ≡ staged ≡ batch, and a traced query reports its work:
	// Host engines, the store a device region migrates to, and the
	// host-built scan a Device quantized region answers through.
	hostWork := cfg.Execution == Host || mutated || cfg.Mode == Quantized
	var direct [][]Result
	var distEvals, dims int // summed over the single queries
	var workSum Work        // summed over the batches of one
	for i := 0; i < 3; i++ {
		var res, staged []Result
		var st DeviceStats
		tracer := obs.NewTracer(0, 1)
		tr := tracer.Trace("search", true)
		if binary {
			res, st, err = r.SearchBinaryStatsSpan(bqs[i], confK, tr.Root())
		} else {
			res, st, err = r.SearchStatsSpan(fqs[i], confK, tr.Root())
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || len(res) > confK || (cfg.Mode == Linear && len(res) != confK) {
			t.Fatalf("Search returned %d results for k=%d", len(res), confK)
		}
		exec := tracer.Finish(tr).Root.Find("exec")
		if exec == nil || exec.Tags["execution"] != cfg.Execution.String() {
			t.Fatalf("exec span = %+v, want execution=%v", exec, cfg.Execution)
		}
		if hostWork {
			de, _ := exec.Tags["dist_evals"].(int)
			d, _ := exec.Tags["dims"].(int)
			if de <= 0 || d <= 0 {
				t.Fatalf("exec span work tags: dist_evals=%v dims=%v", exec.Tags["dist_evals"], exec.Tags["dims"])
			}
			distEvals, dims = distEvals+de, dims+d
		}
		if (cfg.Execution == Device) != (st.Cycles > 0) {
			t.Fatalf("DeviceStats.Cycles = %d under %v execution", st.Cycles, cfg.Execution)
		}
		if !binary {
			// A batch of one is the single query: the same device stats,
			// and the same exec tags but its size.
			tr := tracer.Trace("batch", true)
			_, one, err := r.SearchBatchSpan(fqs[i:i+1], confK, tr.Root())
			if err != nil || one.DeviceStats != st {
				t.Fatalf("batch of one: stats %+v, err %v; want %+v", one, err, st)
			}
			if (one.Dims > 0) != hostWork || (one.TableBuilds == 1) != (cfg.Mode == Quantized) {
				t.Fatalf("batch of one: work %+v", one)
			}
			workSum.add(one)
			bexec := tracer.Finish(tr).Root.Find("exec")
			if bexec.Tags["batch"] != 1 {
				t.Fatalf("batch-of-one exec span tags %v, want batch=1", bexec.Tags)
			}
			delete(bexec.Tags, "batch")
			if !reflect.DeepEqual(bexec.Tags, exec.Tags) {
				t.Fatalf("batch-of-one exec span tags %v, want the single query's %v", bexec.Tags, exec.Tags)
			}
		}

		if binary {
			err = r.WriteQueryBinary(bqs[i])
		} else {
			err = r.WriteQuery(fqs[i])
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Exec(confK); err != nil {
			t.Fatal(err)
		}
		if staged, err = r.ReadResult(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(staged, res) {
			t.Fatalf("staged API diverged from Search:\n%v\n%v", staged, res)
		}
		if last := r.LastStats(); last != st {
			t.Fatalf("LastStats after Exec = %+v, want the query's %+v", last, st)
		}
		direct = append(direct, res)
	}
	if !binary {
		tracer := obs.NewTracer(0, 1)
		tr := tracer.Trace("batch", true)
		got, st, err := r.SearchBatchSpan(fqs, confK, tr.Root())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, direct) {
			t.Fatalf("SearchBatch diverged from Search:\n%v\n%v", got, direct)
		}
		exec := tracer.Finish(tr).Root.Find("exec")
		if exec == nil || exec.Tags["batch"] != len(fqs) {
			t.Fatalf("batch exec span = %+v, want batch=%d", exec, len(fqs))
		}
		// Every engine accounts the batch as exactly the work of its
		// queries run one at a time, whether it scans for all of them at
		// once or fans them out.
		if hostWork {
			if exec.Tags["dist_evals"] != distEvals || exec.Tags["dims"] != dims {
				t.Fatalf("batch exec span work tags: dist_evals=%v dims=%v, want %d and %d",
					exec.Tags["dist_evals"], exec.Tags["dims"], distEvals, dims)
			}
		}
		if st != workSum {
			t.Fatalf("batch work = %+v, want the sum of its queries' %+v", st, workSum)
		}
	} else if _, err := r.SearchBatch([][]float32{make([]float32, r.Dims())}, confK); err == nil {
		t.Fatal("float batch on a Hamming region accepted")
	}

	// After Free every entry point refuses with ErrFreed, and a second
	// Free is safe.
	r.Free()
	r.Free()
	fq, bq := make([]float32, r.Dims()), NewBinaryCode(r.Dims())
	calls := map[string]func() error{
		"LoadFloat32":      func() error { return r.LoadFloat32(fq) },
		"LoadBinary":       func() error { return r.LoadBinary([]BinaryCode{bq}) },
		"BuildIndex":       r.BuildIndex,
		"SetChecks":        func() error { return r.SetChecks(3) },
		"WriteQuery":       func() error { return r.WriteQuery(fq) },
		"WriteQueryBinary": func() error { return r.WriteQueryBinary(bq) },
		"Exec":             func() error { return r.Exec(confK) },
		"ReadResult":       func() error { _, err := r.ReadResult(); return err },
		"Search":           func() error { _, err := r.Search(fq, confK); return err },
		"SearchBinary":     func() error { _, err := r.SearchBinary(bq, confK); return err },
		"SearchBatch":      func() error { _, err := r.SearchBatch([][]float32{fq}, confK); return err },
		"Delete":           func() error { _, _, err := r.Delete(1); return err },
		"CompactNow":       func() error { _, err := r.CompactNow(); return err },
		"Upsert":           func() error { _, err := upsert(); return err },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, ErrFreed) {
			t.Errorf("%s after Free: err = %v, want ErrFreed", name, err)
		}
	}
	if r.Len() != 0 {
		t.Errorf("Len after Free = %d, want 0", r.Len())
	}
}
