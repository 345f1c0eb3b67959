package ssam

import (
	"errors"
	"reflect"
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

func mutableRegion(t *testing.T, cfg Config) (*Region, *dataset.Dataset) {
	t.Helper()
	ds := regionDataset(t)
	r, err := New(ds.Dim(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Free)
	if err := r.LoadFloat32(ds.Data); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return r, ds
}

// TestUpsertMigrationBitExact pins the migration guarantee: results
// before the first write (immutable engine) and after a content-neutral
// write sequence (mutable store) are bit-identical, because the store
// is seeded with ids equal to row indices under the same total order.
func TestUpsertMigrationBitExact(t *testing.T) {
	r, ds := mutableRegion(t, Config{Mode: Linear, Metric: Euclidean, Vaults: 4})
	q := ds.Queries[0]
	before, err := r.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mutable() || r.Seq() != 0 {
		t.Fatalf("unmutated region reports Mutable=%v Seq=%d", r.Mutable(), r.Seq())
	}

	// A write that does not change logical content: re-upsert row 0
	// with its own vector.
	seq, err := r.Upsert(0, ds.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || !r.Mutable() || r.Seq() != 1 {
		t.Fatalf("after first write: seq=%d Mutable=%v Seq()=%d", seq, r.Mutable(), r.Seq())
	}
	after, err := r.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("migration changed results:\n%v\n%v", before, after)
	}
	if r.Len() != ds.N() {
		t.Fatalf("Len = %d, want %d", r.Len(), ds.N())
	}
}

// TestRegionMutationEquivalence interleaves writes with searches and
// checks the region against a second region rebuilt from the surviving
// rows — the region-level version of the store property test.
func TestRegionMutationEquivalence(t *testing.T) {
	r, ds := mutableRegion(t, Config{Mode: Linear, Metric: Euclidean, Vaults: 4})
	n := ds.N()

	// Delete a band of rows and move a few others.
	for id := 100; id < 160; id++ {
		if _, ok, err := r.Delete(id); err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
		}
	}
	moved := ds.Row(200)
	if _, err := r.Upsert(n+5, moved); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Upsert(50, ds.Row(300)); err != nil {
		t.Fatal(err)
	}
	if r.Len() != n-60+1 {
		t.Fatalf("Len = %d, want %d", r.Len(), n-60+1)
	}

	// Rebuild the surviving logical content as a fresh immutable
	// region... except ids differ, so compare against a direct oracle.
	type row struct {
		id int
		v  []float32
	}
	var rows []row
	for id := 0; id < n; id++ {
		if id >= 100 && id < 160 {
			continue
		}
		v := ds.Row(id)
		if id == 50 {
			v = ds.Row(300)
		}
		rows = append(rows, row{id, v})
	}
	rows = append(rows, row{n + 5, moved})

	for _, q := range ds.Queries {
		got, err := r.Search(q, 12)
		if err != nil {
			t.Fatal(err)
		}
		sel := topk.New(12)
		for _, rw := range rows {
			sel.Push(rw.id, vec.Distance(vec.Euclidean, q, rw.v))
		}
		if want := sel.Results(); !reflect.DeepEqual(got, want) {
			t.Fatalf("region diverges from oracle:\n%v\n%v", got, want)
		}
	}

	// Batch answers match single-query answers on the same content.
	out, err := r.SearchBatch(ds.Queries, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range ds.Queries {
		single, _ := r.Search(q, 12)
		if !reflect.DeepEqual(out[i], single) {
			t.Fatalf("batch query %d diverges", i)
		}
	}

	// Compaction is invisible to results.
	before, _ := r.Search(ds.Queries[1], 12)
	if _, err := r.CompactNow(); err != nil {
		t.Fatal(err)
	}
	after, _ := r.Search(ds.Queries[1], 12)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("compaction changed results")
	}

	// The staged Figure-4 sequence serves from the store too.
	if err := r.WriteQuery(ds.Queries[2]); err != nil {
		t.Fatal(err)
	}
	if err := r.Exec(12); err != nil {
		t.Fatal(err)
	}
	staged, err := r.ReadResult()
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := r.Search(ds.Queries[2], 12)
	if !reflect.DeepEqual(staged, direct) {
		t.Fatal("Exec diverges from Search on a mutated region")
	}
}

func TestImmutableEnginesRejectMutation(t *testing.T) {
	ds := regionDataset(t)
	for _, mode := range []Mode{KDTree, KMeans, MPLSH, Graph, Quantized} {
		r, err := New(ds.Dim(), Config{Mode: mode, Metric: Euclidean})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.LoadFloat32(ds.Data); err != nil {
			t.Fatal(err)
		}
		if err := r.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Upsert(0, ds.Row(0)); !errors.Is(err, ErrImmutableEngine) {
			t.Fatalf("%v Upsert err = %v, want ErrImmutableEngine", mode, err)
		}
		if _, _, err := r.Delete(0); !errors.Is(err, ErrImmutableEngine) {
			t.Fatalf("%v Delete err = %v, want ErrImmutableEngine", mode, err)
		}
		r.Free()
	}
}

func TestMutationErrors(t *testing.T) {
	ds := regionDataset(t)
	r, err := New(ds.Dim(), Config{Mode: Linear})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Upsert(0, ds.Row(0)); err == nil {
		t.Fatal("Upsert before BuildIndex accepted")
	}
	if _, err := r.CompactNow(); err == nil {
		t.Fatal("CompactNow before mutation accepted")
	}
	if err := r.LoadFloat32(ds.Data); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Upsert(0, ds.Row(0)[:3]); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := r.UpsertBinary(0, vec.NewBinary(8)); err == nil {
		t.Fatal("binary upsert on float region accepted")
	}
	if _, err := r.Upsert(0, ds.Row(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.MutationStats(); !ok {
		t.Fatal("MutationStats not available after mutation")
	}

	// Reload resets the write path: the stale store is dropped.
	if err := r.LoadFloat32(ds.Data); err != nil {
		t.Fatal(err)
	}
	if r.Mutable() || r.Seq() != 0 {
		t.Fatalf("reload kept the store: Mutable=%v Seq=%d", r.Mutable(), r.Seq())
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	r.Free()
	if _, err := r.Upsert(0, ds.Row(0)); !errors.Is(err, ErrFreed) {
		t.Fatalf("Upsert after Free = %v", err)
	}
	if _, err := r.CompactNow(); !errors.Is(err, ErrFreed) {
		t.Fatalf("CompactNow after Free = %v", err)
	}
}

func TestHammingRegionMutation(t *testing.T) {
	const bits, n = 64, 120
	codes := make([]BinaryCode, n)
	for i := range codes {
		c := NewBinaryCode(bits)
		for b := 0; b < bits; b++ {
			c.Set(b, (i>>uint(b%7))&1 == 1)
		}
		codes[i] = c
	}
	r, err := New(bits, Config{Mode: Linear, Metric: Hamming, Vaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Free()
	if err := r.LoadBinary(codes); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	q := codes[3]
	before, err := r.SearchBinary(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Upsert(0, []float32{1}); err == nil {
		t.Fatal("float upsert on Hamming region accepted")
	}
	seq, err := r.UpsertBinary(3, codes[3])
	if err != nil || seq != 1 {
		t.Fatalf("UpsertBinary: seq=%d err=%v", seq, err)
	}
	after, err := r.SearchBinary(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("content-neutral binary upsert changed results:\n%v\n%v", before, after)
	}
	if _, ok, err := r.Delete(7); err != nil || !ok {
		t.Fatalf("Delete: ok=%v err=%v", ok, err)
	}
	res, err := r.SearchBinary(codes[7], n)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range res {
		if rr.ID == 7 {
			t.Fatal("deleted code still returned")
		}
	}
	if r.Len() != n-1 {
		t.Fatalf("Len = %d, want %d", r.Len(), n-1)
	}
}

// TestDeviceRegionMutation checks the Device execution path: results
// come from the host-side store (bit-identical to Host execution on the
// same content) and the device prices the scan analytically with
// non-zero stats that track the live row count.
func TestDeviceRegionMutation(t *testing.T) {
	r, ds := mutableRegion(t, Config{Mode: Linear, Metric: Euclidean, Execution: Device, VectorLength: 4})
	host, _ := mutableRegion(t, Config{Mode: Linear, Metric: Euclidean})
	q := ds.Queries[0]

	for _, reg := range []*Region{r, host} {
		if _, _, err := reg.Delete(9); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Upsert(2000, ds.Row(9)); err != nil {
			t.Fatal(err)
		}
	}
	devRes, devSt, err := r.SearchStats(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	hostRes, _, err := host.SearchStats(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(devRes, hostRes) {
		t.Fatalf("device/host divergence on mutated region:\n%v\n%v", devRes, hostRes)
	}
	if devSt.Cycles == 0 || devSt.DRAMBytesRead == 0 || devSt.ProcessingUnits == 0 {
		t.Fatalf("analytic device stats empty: %+v", devSt)
	}
	// The staged Exec of the same query publishes the same stats.
	if err := r.WriteQuery(q); err != nil {
		t.Fatal(err)
	}
	if err := r.Exec(8); err != nil {
		t.Fatal(err)
	}
	if got := r.LastStats(); got != devSt {
		t.Fatalf("LastStats %+v after Exec != SearchStats's %+v", got, devSt)
	}

	// Deleting rows shrinks the analytic scan cost.
	for id := 0; id < 700; id++ {
		r.Delete(id)
	}
	_, smaller, err := r.SearchStats(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	if smaller.DRAMBytesRead >= devSt.DRAMBytesRead {
		t.Fatalf("DRAM read did not shrink: %d -> %d", devSt.DRAMBytesRead, smaller.DRAMBytesRead)
	}

	// Batch on the device path aggregates per-query analytic stats.
	out, agg, err := r.SearchBatchSpan(ds.Queries[:3], 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("batch returned %d result sets", len(out))
	}
	if agg.Cycles == 0 || agg.ProcessingUnits == 0 {
		t.Fatalf("batch analytic stats empty: %+v", agg)
	}
}

func TestCompactHookFires(t *testing.T) {
	r, _ := mutableRegion(t, Config{Mode: Linear, Metric: Euclidean, Vaults: 2})
	fired := make(chan CompactResult, 1)
	r.SetCompactHook(func(cr CompactResult) {
		select {
		case fired <- cr:
		default:
		}
	})
	// Every other row, so both vaults cross the garbage threshold.
	for id := 0; id < 1500; id += 2 {
		if _, ok, err := r.Delete(id); err != nil || !ok {
			t.Fatalf("delete %d: %v %v", id, ok, err)
		}
	}
	res, err := r.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed() {
		t.Fatalf("compaction did not run: %+v", res)
	}
	select {
	case cr := <-fired:
		if cr.RowsDropped == 0 {
			t.Fatalf("hook saw empty result: %+v", cr)
		}
	default:
		t.Fatal("compact hook never fired")
	}
	st, ok := r.MutationStats()
	if !ok || st.Dead != 0 || st.Deletes != 750 {
		t.Fatalf("stats after compaction: %+v ok=%v", st, ok)
	}
}
