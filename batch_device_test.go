package ssam

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestDeviceSearchBatchPartialFailure pins the mid-batch error
// contract: a device batch that fails at query i returns a *BatchError
// carrying i, keeps the results already computed for queries before i,
// and returns the stats those queries accumulated. A single query is a
// batch of one through the same seam, and fails with the engine's own
// error, not a *BatchError.
func TestDeviceSearchBatchPartialFailure(t *testing.T) {
	const dims, n = 8, 64
	rng := rand.New(rand.NewSource(7))
	data := make([]float32, dims*n)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	r, err := New(dims, Config{Execution: Device})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadFloat32(data); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	qs := [][]float32{data[:dims], data[dims : 2*dims], data[2*dims : 3*dims], data[3*dims : 4*dims]}
	const failAt = 2
	boom := fmt.Errorf("injected vault failure")
	r.batchFault = func(i int) error {
		if i == failAt {
			return boom
		}
		return nil
	}

	out, st, err := r.SearchBatchSpan(qs, 3, nil)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("SearchBatch error = %v, want *BatchError", err)
	}
	if be.Index != failAt {
		t.Fatalf("BatchError.Index = %d, want %d", be.Index, failAt)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("BatchError does not unwrap to the injected error: %v", err)
	}
	for i := 0; i < failAt; i++ {
		if len(out[i]) == 0 {
			t.Fatalf("query %d results discarded on mid-batch error", i)
		}
		if out[i][0].ID != i {
			t.Fatalf("query %d: nearest = %d, want itself (%d)", i, out[i][0].ID, i)
		}
	}
	for i := failAt; i < len(qs); i++ {
		if out[i] != nil {
			t.Fatalf("query %d ran despite the batch failing at %d", i, failAt)
		}
	}
	if st.Cycles == 0 || st.Instructions == 0 {
		t.Fatalf("stats for the completed prefix not returned: %+v", st)
	}

	// The same batch without the fault must finish and accumulate more
	// cycles than the failed prefix did.
	r.batchFault = nil
	_, full, err := r.SearchBatchSpan(qs, 3, nil)
	if err != nil {
		t.Fatalf("clean batch: %v", err)
	}
	if full.Cycles <= st.Cycles {
		t.Fatalf("full batch cycles %d not greater than failed prefix's %d", full.Cycles, st.Cycles)
	}

	// A single query failing at 0 returns the injected error itself.
	r.batchFault = func(i int) error {
		if i == 0 {
			return boom
		}
		return nil
	}
	if res, err := r.Search(qs[0], 3); err != boom || res != nil {
		t.Fatalf("Search = %v, %v; want nil, the injected error", res, err)
	}
}
