// Bnn demonstrates the paper's Section VI-B observation that the
// SSAM's vectorized fused xor-popcount (FXP) unit serves workloads
// beyond kNN — here the binarized matrix-vector products of a binary
// neural network (XNOR-net style): the hidden layer's weight rows are
// loaded into a Hamming SSAM region, and one device query computes
// every unit's XNOR-popcount activation at once (an XNOR dot product
// is bits - 2*HammingDistance).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ssam"
	"ssam/internal/vec"
)

const (
	inputBits  = 512
	hiddenBits = 64
	classes    = 4
	perClass   = 100
)

func randomCode(rng *rand.Rand, bits int) vec.Binary {
	c := vec.NewBinary(bits)
	for i := 0; i < bits; i++ {
		c.Set(i, rng.Intn(2) == 1)
	}
	return c
}

func corrupt(rng *rand.Rand, c vec.Binary, flipFrac float64) vec.Binary {
	out := vec.NewBinary(c.Dim)
	copy(out.Words, c.Words)
	flips := int(flipFrac * float64(c.Dim))
	for f := 0; f < flips; f++ {
		i := rng.Intn(c.Dim)
		out.Set(i, !out.Bit(i))
	}
	return out
}

// hiddenLayer computes the binarized hidden activation of x on the
// SSAM device: every weight row's Hamming distance in one query, then
// sign(bits - 2*distance). It also returns the query's simulated cycles.
func hiddenLayer(region *ssam.Region, x vec.Binary) (vec.Binary, uint64, error) {
	res, st, err := region.SearchBinaryStats(x, hiddenBits)
	if err != nil {
		return vec.Binary{}, 0, err
	}
	h := vec.NewBinary(hiddenBits)
	for _, r := range res {
		// XNOR dot = inputBits - 2*hamming; activation fires when
		// positive, i.e. hamming < inputBits/2.
		if int(r.Dist) < inputBits/2 {
			h.Set(r.ID, true)
		}
	}
	return h, st.Cycles, nil
}

func main() {
	rng := rand.New(rand.NewSource(5))

	// Hidden layer: 64 random binary weight rows (locality-sensitive
	// by construction, like binarized first-layer filters).
	weights := make([]vec.Binary, hiddenBits)
	for i := range weights {
		weights[i] = randomCode(rng, inputBits)
	}
	region, err := ssam.New(inputBits, ssam.Config{
		Mode:         ssam.Linear,
		Metric:       ssam.Hamming,
		Execution:    ssam.Device,
		VectorLength: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer region.Free()
	must(region.LoadBinary(weights))
	must(region.BuildIndex())

	// Output layer: each class's reference hidden code, computed from
	// its prototype input (a trained BNN's output weights play this
	// role; nearest-hidden-code is its argmax).
	prototypes := make([]vec.Binary, classes)
	protoHidden := make([]vec.Binary, classes)
	for c := range prototypes {
		prototypes[c] = randomCode(rng, inputBits)
		h, _, err := hiddenLayer(region, prototypes[c])
		if err != nil {
			log.Fatal(err)
		}
		protoHidden[c] = h
	}

	// Classify noisy samples.
	correct, total := 0, 0
	var cycles uint64
	for c := 0; c < classes; c++ {
		for s := 0; s < perClass; s++ {
			x := corrupt(rng, prototypes[c], 0.12)
			h, cyc, err := hiddenLayer(region, x)
			if err != nil {
				log.Fatal(err)
			}
			cycles += cyc
			best, bestD := -1, 1<<30
			for cls, ph := range protoHidden {
				if d := vec.Hamming(h, ph); d < bestD {
					best, bestD = cls, d
				}
			}
			if best == c {
				correct++
			}
			total++
		}
	}
	fmt.Printf("binary neural network on SSAM (FXP hidden layer):\n")
	fmt.Printf("  input %d bits -> hidden %d units -> %d classes\n", inputBits, hiddenBits, classes)
	fmt.Printf("  accuracy: %d/%d (%.1f%%), chance = %.1f%%\n",
		correct, total, 100*float64(correct)/float64(total), 100.0/classes)
	fmt.Printf("  device cost: %.1f cycles/sample @1GHz\n", float64(cycles)/float64(total))
	if float64(correct)/float64(total) < 0.9 {
		log.Fatal("accuracy regression: expected >= 90%")
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
