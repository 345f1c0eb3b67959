package ssamdev

// On-device hyperplane LSH (Section III-D): hash-function weights live
// in SSAM memory, bucket lookups and scans run entirely on the
// processing units, and the host only merges per-PU top-k lists. Each
// PU hashes its own shard into per-table buckets at build time.

import (
	"fmt"
	"math/rand"

	"ssam/internal/asm"
	"ssam/internal/isa"
	"ssam/internal/sim"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// LSHIndex is a built on-device hyperplane LSH index.
type LSHIndex struct {
	dev    *Device
	tables int
	bits   int
	planes []int32 // tables*bits hyperplanes, padded words each, quantized
	slices []lshSlice
	// MultiProbe switches the kernel to static multi-probing: each
	// table additionally scans every single-bit perturbation of the
	// query's hash code (Bits extra probes per table).
	MultiProbe bool
}

type lshSlice struct {
	dram []int32 // rows + planes + offsets + entries, per LSHLayout
	lay  sim.LSHLayout
}

// BuildLSHIndex builds per-PU hash tables with the given table count
// and hash width (buckets per table = 2^bits). All PUs share one
// hyperplane set drawn from seed.
func (d *Device) BuildLSHIndex(tables, bits int, seed int64) (*LSHIndex, error) {
	if d.metric != vec.Euclidean {
		return nil, fmt.Errorf("ssamdev: LSH index requires a Euclidean device")
	}
	if tables < 1 || bits < 1 || bits > 16 {
		return nil, fmt.Errorf("ssamdev: tables=%d bits=%d out of range", tables, bits)
	}
	x := &LSHIndex{dev: d, tables: tables, bits: bits}

	// Hyperplanes quantized with the device shift (their magnitude is
	// ~N(0,1), the same regime as the data, so the squared-L2 overflow
	// bound covers the dot products too).
	rng := rand.New(rand.NewSource(seed))
	x.planes = make([]int32, tables*bits*d.padded)
	for p := 0; p < tables*bits; p++ {
		row := make([]float32, d.dim)
		for i := range row {
			row[i] = float32(rng.NormFloat64())
		}
		copy(x.planes[p*d.padded:], sim.QuantizeDevice(row, d.shift))
	}

	for i := range d.slices {
		sl := &d.slices[i]
		n := len(sl.ids)
		lay := sim.NewLSHLayout(n, d.padded, tables, bits)
		dram := make([]int32, lay.Total)
		copy(dram, sl.dram)
		copy(dram[lay.Planes:], x.planes)

		// Hash every row per table with the same integer arithmetic the
		// kernel uses.
		for t := 0; t < tables; t++ {
			codes := make([]int, n)
			counts := make([]int32, (1<<bits)+1)
			for r := 0; r < n; r++ {
				code := 0
				for b := 0; b < bits; b++ {
					plane := x.planes[(t*bits+b)*d.padded : (t*bits+b+1)*d.padded]
					var dot int64
					for w := 0; w < d.padded; w++ {
						dot += int64(sl.dram[r*d.padded+w]) * int64(plane[w])
					}
					if dot >= 0 {
						code |= 1 << uint(b)
					}
				}
				codes[r] = code
				counts[code+1]++
			}
			offBase := lay.Offsets + t*((1<<bits)+1)
			for c := 1; c <= 1<<bits; c++ {
				counts[c] += counts[c-1]
			}
			copy(dram[offBase:], counts)
			entBase := lay.Entries + t*n
			cursor := make([]int32, 1<<bits)
			copy(cursor, counts[:1<<bits])
			for r := 0; r < n; r++ {
				c := codes[r]
				dram[entBase+int(cursor[c])] = int32(r)
				cursor[c]++
			}
		}
		x.slices = append(x.slices, lshSlice{dram: dram, lay: lay})
	}

	// One kernel serves every slice shape except N, which only affects
	// the layout constants — but those are baked into the program, so
	// shapes must match; with near-equal shards they differ, so compile
	// per distinct layout lazily instead.
	return x, nil
}

// program assembles the kernel for one slice's layout.
func (x *LSHIndex) program(lay sim.LSHLayout) ([]isa.Inst, error) {
	var src string
	if x.MultiProbe {
		src = sim.MPLSHKernel(x.dev.dim, x.dev.cfg.PU.VectorLen, lay)
	} else {
		src = sim.LSHKernel(x.dev.dim, x.dev.cfg.PU.VectorLen, lay)
	}
	return asm.Assemble(src)
}

// Search hashes the query on every PU and scans the matching bucket of
// each table (single probe per table). Duplicate candidates scanned by
// several tables are deduplicated host-side.
func (x *LSHIndex) Search(q []float32, k int) ([]topk.Result, QueryStats, error) {
	d := x.dev
	if len(q) != d.dim {
		return nil, QueryStats{}, fmt.Errorf("ssamdev: query dim %d, want %d", len(q), d.dim)
	}
	query := make([]int32, d.padded)
	copy(query, sim.QuantizeDevice(q, d.shift))
	puCfg := d.puConfig(((k + topk.QueueDepth - 1) / topk.QueueDepth) * topk.QueueDepth * 2)

	results := make([][]topk.Result, len(x.slices))
	outs := make([]sim.Stats, len(x.slices))
	errs := make([]error, len(x.slices))
	runParallel(len(x.slices), func(i int) {
		ls := &x.slices[i]
		prog, err := x.program(ls.lay)
		if err != nil {
			errs[i] = err
			return
		}
		pu := sim.New(puCfg, ls.dram)
		if err := pu.WriteScratch(0, query); err != nil {
			errs[i] = err
			return
		}
		if err := pu.Run(prog); err != nil {
			errs[i] = err
			return
		}
		local := pu.Results()
		seen := make(map[int]bool, len(local))
		dedup := local[:0]
		for _, r := range local {
			if seen[r.ID] {
				continue
			}
			seen[r.ID] = true
			r.ID = int(d.slices[i].ids[r.ID])
			dedup = append(dedup, r)
		}
		results[i] = dedup
		outs[i] = pu.Stats()
	})

	var st QueryStats
	st.PUs = len(x.slices)
	lists := make([][]topk.Result, 0, len(x.slices))
	for i := range outs {
		if errs[i] != nil {
			return nil, QueryStats{}, errs[i]
		}
		lists = append(lists, results[i])
		s := outs[i]
		if s.Cycles > st.Cycles {
			st.Cycles = s.Cycles
		}
		st.Instructions += s.Instructions
		st.VectorInsts += s.VectorInsts
		st.DRAMBytesRead += s.DRAMBytesRead
		st.PQInserts += s.PQInserts
	}
	st.Seconds = float64(st.Cycles) / d.cfg.PU.ClockHz
	return topk.MergeSorted(k, lists...), st, nil
}
