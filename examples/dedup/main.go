// Dedup demonstrates Hamming-space similarity search (Section II-D's
// binarized representation) for near-duplicate detection: documents
// are sign-binarized into compact codes and searched on the simulated
// SSAM device with the fused xor-popcount (VFXP) kernel — the paper's
// data-deduplication use case.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ssam"
	"ssam/internal/vec"
)

const (
	numDocs = 3000
	dim     = 256 // binarized code width in bits
)

func main() {
	rng := rand.New(rand.NewSource(21))

	// Corpus: originals plus injected near-duplicates (a few flipped
	// bits) and exact duplicates.
	type doc struct {
		Name  string
		DupOf int // -1 for originals
		Code  vec.Binary
	}
	docs := make([]doc, 0, numDocs)
	codes := make([]vec.Binary, 0, numDocs)
	newCode := func() vec.Binary {
		c := vec.NewBinary(dim)
		for i := 0; i < dim; i++ {
			c.Set(i, rng.Intn(2) == 1)
		}
		return c
	}
	mutate := func(c vec.Binary, flips int) vec.Binary {
		out := vec.NewBinary(dim)
		copy(out.Words, c.Words)
		for f := 0; f < flips; f++ {
			i := rng.Intn(dim)
			out.Set(i, !out.Bit(i))
		}
		return out
	}
	for i := 0; i < numDocs; i++ {
		switch {
		case i%10 == 9: // exact duplicate of an earlier doc
			src := rng.Intn(i)
			docs = append(docs, doc{fmt.Sprintf("doc%04d", i), src, docs[src].Code})
		case i%10 == 8: // near duplicate: ~2% of bits flipped
			src := rng.Intn(i)
			docs = append(docs, doc{fmt.Sprintf("doc%04d", i), src, mutate(docs[src].Code, dim/50)})
		default:
			docs = append(docs, doc{fmt.Sprintf("doc%04d", i), -1, newCode()})
		}
		codes = append(codes, docs[i].Code)
	}

	// Load the codes into a Hamming SSAM region on the simulated
	// device (SSAM-4, as in the paper's Table VI configuration).
	region, err := ssam.New(dim, ssam.Config{
		Mode:         ssam.Linear,
		Metric:       ssam.Hamming,
		Execution:    ssam.Device,
		VectorLength: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer region.Free()
	must(region.LoadBinary(codes))
	must(region.BuildIndex())

	// Sweep the corpus for duplicates: for each doc, its nearest
	// non-self neighbor within a Hamming threshold is a duplicate.
	const threshold = dim / 20 // 5% differing bits
	found, correct := 0, 0
	var totalCycles uint64
	for i := 2400; i < 2500; i++ { // audit a window of the corpus
		res, st, err := region.SearchBinaryStats(docs[i].Code, 2)
		if err != nil {
			log.Fatal(err)
		}
		totalCycles += st.Cycles
		for _, r := range res {
			if r.ID == i {
				continue
			}
			if int(r.Dist) <= threshold {
				found++
				if docs[i].DupOf == r.ID || docs[r.ID].DupOf == i ||
					(docs[i].DupOf >= 0 && docs[i].DupOf == docs[r.ID].DupOf) {
					correct++
				}
				fmt.Printf("%s ~ %s (hamming %d)\n", docs[i].Name, docs[r.ID].Name, int(r.Dist))
			}
		}
	}
	fmt.Printf("\naudited 100 docs: %d duplicate pairs flagged, %d confirmed against ground truth\n",
		found, correct)
	fmt.Printf("device cost: %.2f M cycles total (%.1f us/doc @1GHz)\n",
		float64(totalCycles)/1e6, float64(totalCycles)/100/1e3)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
