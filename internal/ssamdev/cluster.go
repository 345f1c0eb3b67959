package ssamdev

// Multi-module composition (Section III-A/III-B): "HMC modules can be
// composed together, these additional links and SSAM modules allows us
// to scale up the capacity of the system". A Cluster shards a dataset
// that exceeds one module's capacity across several SSAM modules; the
// host broadcasts each query over the external links and performs the
// final global top-k reduction, whose traffic is "a fraction of the
// original dataset size".

import (
	"fmt"

	"ssam/internal/par"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// Cluster is a set of SSAM modules serving one logical dataset.
type Cluster struct {
	cfg     Config
	devices []*Device
	offsets []int // global id of each device's first vector
	n       int
	dim     int
}

// NewFloatCluster shards data across as many modules as its footprint
// requires (at least minModules) and builds a device per shard.
func NewFloatCluster(cfg Config, data []float32, dim int, metric vec.Metric, minModules int) (*Cluster, error) {
	if dim <= 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("ssamdev: data length %d not a multiple of dim %d", len(data), dim)
	}
	n := len(data) / dim
	padded := paddedWords(dim, cfg.PU.VectorLen)
	bytes := int64(n) * int64(padded) * 4
	modules := cfg.HMC.ModulesNeeded(bytes)
	if modules < minModules {
		modules = minModules
	}
	if modules < 1 {
		modules = 1
	}
	c := &Cluster{cfg: cfg, n: n, dim: dim}
	split := par.NewSplit(n, modules)
	for m := range split.Len() {
		start, end := split.Bounds(m, m+1)
		dev, err := NewFloat(cfg, data[start*dim:end*dim], dim, metric)
		if err != nil {
			return nil, err
		}
		c.devices = append(c.devices, dev)
		c.offsets = append(c.offsets, start)
	}
	return c, nil
}

func paddedWords(dim, vlen int) int {
	if vlen <= 0 {
		vlen = 8
	}
	return (dim + vlen - 1) / vlen * vlen
}

// Modules returns the number of SSAM modules in the cluster.
func (c *Cluster) Modules() int { return len(c.devices) }

// N returns the logical dataset size.
func (c *Cluster) N() int { return c.n }

// Search broadcasts the query to every module and merges the per-
// module top-k on the host. Device latency is the slowest module
// (modules run in parallel); the host-side reduction adds the external
// link time for shipping each module's k results plus the broadcast of
// the query itself.
func (c *Cluster) Search(q []float32, k int) ([]topk.Result, QueryStats, error) {
	if len(q) != c.dim {
		return nil, QueryStats{}, fmt.Errorf("ssamdev: query dim %d, want %d", len(q), c.dim)
	}
	var st QueryStats
	lists := make([][]topk.Result, 0, len(c.devices))
	for i, dev := range c.devices {
		res, ds, err := dev.Search(q, k)
		if err != nil {
			return nil, QueryStats{}, err
		}
		for j := range res {
			res[j].ID += c.offsets[i]
		}
		lists = append(lists, res)
		if ds.Cycles > st.Cycles {
			st.Cycles = ds.Cycles
		}
		st.Instructions += ds.Instructions
		st.VectorInsts += ds.VectorInsts
		st.DRAMBytesRead += ds.DRAMBytesRead
		st.PQInserts += ds.PQInserts
		st.PUs += ds.PUs
	}
	st.Seconds = float64(st.Cycles) / c.cfg.PU.ClockHz
	// Link traffic: the query broadcast out plus (id, value) pairs
	// back from each module.
	queryBytes := int64(c.dim * 4)
	resultBytes := int64(len(c.devices) * k * 8)
	st.Seconds += c.cfg.HMC.LinkTime(queryBytes + resultBytes).Seconds()
	return topk.MergeSorted(k, lists...), st, nil
}
