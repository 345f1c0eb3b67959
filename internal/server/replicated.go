package server

// Replicated regions: the server-side face of internal/replica. A
// region created with config.replicas owns a replica.Group whose
// backends are built here — one ssam.Region per replica, or one
// cluster.Cluster per replica when config.sharding is also set
// (replication multiplies whole sharded copies). Loads only stage
// data; build installs generation 1 and POST .../reload swaps in a
// fresh generation from the staged dataset with zero downtime.

import (
	"context"
	"fmt"
	"time"

	"ssam"
	"ssam/internal/cluster"
	"ssam/internal/obs"
	"ssam/internal/replica"
	"ssam/internal/server/wire"
)

// warmQueries bounds how many staged rows are replayed as warm-up
// queries against each freshly built replica before it takes traffic.
const warmQueries = 4

// groupBackend is the replicated kind: a replica.Group routes each
// batch to one of N interchangeable copies (hedging to a second), so
// batches bypass the micro-batcher; writes fan out through the group
// (it is a mutator). The group pointer is fixed for the entry's
// lifetime; generations swap inside it.
type groupBackend struct {
	*replica.Group
	s *Server
	e *regionEntry
}

// Load only stages (the entry keeps the rows): the serving generation
// keeps answering from the old dataset until Build (first time) or
// reload cuts over — that is the zero-downtime contract.
func (b *groupBackend) Load([]float32) error { return nil }

// Build is the first swap, installing generation 1 from the staged
// dataset (later rebuilds go through .../reload).
func (b *groupBackend) Build() error {
	_, err := b.swap()
	return err
}

func (b *groupBackend) Built() bool { return b.Gen() > 0 }

// Search tags the batch span a bypass: the routing is the parallelism.
func (b *groupBackend) Search(_ context.Context, qs [][]float32, k int, sp *obs.Span) (answer, error) {
	sp.SetTag("bypass", true)
	b.e.stats.recordBatch(len(qs))
	resp, err := b.Group.Search(qs, k, sp)
	return answer{
		Results: resp.Results, Degraded: resp.Degraded, FailedShards: resp.FailedShards,
		Hedges: resp.Hedges + resp.ShardHedges, Replica: &resp.Replica, Gen: resp.Gen, Failovers: resp.Failovers,
	}, err
}

func (b *groupBackend) Pending() int {
	depth := 0
	for ri := 0; ri < b.Replicas(); ri++ {
		depth += b.Stat(ri).InFlight
	}
	return depth
}

func (b *groupBackend) Describe(info *wire.RegionInfo) {
	info.Replicas, info.Gen = b.Replicas(), b.Gen()
	if sc := b.e.cfgWire.Sharding; sc != nil {
		info.Shards = sc.Shards
	}
}

// newGroupBackend builds a freshly created entry's replica.Group,
// validating both the group options and the underlying backend
// configuration (by probing an empty backend, so a bad metric/mode or
// sharding combo fails at create time, not at first build).
func (s *Server) newGroupBackend(e *regionEntry, req wire.CreateRegionRequest) (backend, error) {
	rc := req.Config.Replicas
	opts := replica.Options{
		Replicas: rc.Replicas,
		Hedge:    rc.Hedge,
		HedgeMin: time.Duration(rc.HedgeMinMs * float64(time.Millisecond)),
		HedgeMax: time.Duration(rc.HedgeMaxMs * float64(time.Millisecond)),
		Deadline: time.Duration(rc.DeadlineMs * float64(time.Millisecond)),
	}
	if sc := req.Config.Sharding; sc != nil {
		shardOpts := toShardingOptions(sc)
		probe, err := cluster.New(e.dims, e.cfg, shardOpts)
		if err != nil {
			return nil, err
		}
		probe.Free()
		e.shardOpts = shardOpts
	} else {
		probe, err := ssam.New(e.dims, e.cfg)
		if err != nil {
			return nil, err
		}
		probe.Free()
	}
	group, err := replica.NewGroup(opts)
	if err != nil {
		return nil, err
	}
	return &groupBackend{Group: group, s: s, e: e}, nil
}

// buildReplicaBackend constructs one replica's backend over the entry's
// slab: load, build index, wrap. Every replica of a generation adopts
// the same slab (no slab is written once handed out), or, sharded,
// splits it into its own cluster, whose shards adopt ranges of it.
func (s *Server) buildReplicaBackend(e *regionEntry, data []float32) (replica.Backend, error) {
	if e.cfgWire.Sharding != nil {
		c, err := cluster.New(e.dims, e.cfg, e.shardOpts)
		if err != nil {
			return nil, err
		}
		if err := c.AdoptFloat32(data); err != nil {
			c.Free()
			return nil, err
		}
		if err := c.BuildIndex(); err != nil {
			c.Free()
			return nil, err
		}
		return replica.WrapCluster(c), nil
	}
	r, err := ssam.New(e.dims, e.cfg)
	if err != nil {
		return nil, err
	}
	if err := r.AdoptFloat32(data); err != nil {
		r.Free()
		return nil, err
	}
	if err := r.BuildIndex(); err != nil {
		r.Free()
		return nil, err
	}
	return replica.WrapRegion(r), nil
}

// swap runs one generational swap from the entry's staged dataset. The
// slab is read under e.mu, but the swap itself — backend builds,
// warming, cutover, drain — runs outside e.mu so /statsz, searches, and
// metric scrapes keep flowing while the new generation is under
// construction.
func (b *groupBackend) swap() (replica.SwapStats, error) {
	e := b.e
	e.mu.Lock()
	data := e.data
	e.mu.Unlock()

	// Warm each new replica with a few staged rows as queries.
	var warm [][]float32
	rows := len(data) / e.dims
	for i := 0; i < rows && i < warmQueries; i++ {
		warm = append(warm, data[i*e.dims:(i+1)*e.dims])
	}
	return b.Swap(func(int) (replica.Backend, error) {
		return b.s.buildReplicaBackend(e, data)
	}, warm, 1)
}

// reloadRoute is POST /regions/{name}/reload: rebuild a replicated
// region from its staged dataset as a new generation, cut traffic
// over atomically, and free the old generation after its in-flight
// queries drain. Queries keep being answered throughout — by the old
// generation during build, by the new one after cutover — so a reload
// under load drops nothing. Mutations applied since the last load are
// not in the staged dataset and do not survive a reload (the staged
// rows are the source of truth the new generation is built from).
//
// It is traced but not admitted: a swap is seconds of build work, and
// the in-flight budget is sized for queries.
var reloadRoute = route[struct{}, wire.ReloadResponse]{
	trace: "reload",
	gate: func(e *regionEntry) error {
		if _, ok := e.be.(*groupBackend); !ok {
			return conflict{fmt.Errorf("region %q is not replicated (create with config.replicas to enable reload)", e.name)}
		}
		return builtGate(e)
	},
	run: func(_ context.Context, _ *Server, e *regionEntry, _ struct{}, root *obs.Span, _ time.Time) (wire.ReloadResponse, error) {
		grp := e.be.(*groupBackend)
		rsp := root.Start("swap")
		st, err := grp.swap()
		rsp.SetTag("gen", st.Gen)
		rsp.End()
		if err != nil {
			return wire.ReloadResponse{}, conflict{err}
		}
		return wire.ReloadResponse{
			Gen:      st.Gen,
			Replicas: st.Replicas,
			Len:      grp.Len(),
			BuildMs:  float64(st.Build) / float64(time.Millisecond),
			DrainMs:  float64(st.Drain) / float64(time.Millisecond),
		}, nil
	},
}

// FailReplica injects a fault into one replica slot of a replicated
// region: every attempt routed to that slot fails until healed with
// HealReplicas. It is the chaos seam the soak tests and the CI smoke
// use to kill a replica under live traffic.
func (s *Server) FailReplica(region string, replicaIdx int) error {
	g, err := s.regionGroup(region)
	if err != nil {
		return err
	}
	if replicaIdx < 0 || replicaIdx >= g.Replicas() {
		return fmt.Errorf("server: region %q has no replica %d", region, replicaIdx)
	}
	g.SetFaultHook(func(rep, _ int) error {
		if rep == replicaIdx {
			return fmt.Errorf("injected fault: replica %d down", replicaIdx)
		}
		return nil
	})
	return nil
}

// HealReplicas removes any injected replica fault from the region.
func (s *Server) HealReplicas(region string) error {
	g, err := s.regionGroup(region)
	if err != nil {
		return err
	}
	g.SetFaultHook(nil)
	return nil
}

func (s *Server) regionGroup(region string) (*replica.Group, error) {
	e, err := s.lookup(region)
	if err != nil {
		return nil, err
	}
	grp, ok := e.be.(*groupBackend)
	if !ok {
		return nil, fmt.Errorf("server: region %q is not replicated", region)
	}
	return grp.Group, nil
}

// toWireReplication converts a group's stats to the wire block
// attached to /statsz region blocks.
func toWireReplication(gst replica.GroupStats) *wire.ReplicationStats {
	out := &wire.ReplicationStats{
		Gen:          gst.Gen,
		Swaps:        gst.Swaps,
		HedgeDelayMs: float64(gst.HedgeDelay) / float64(time.Millisecond),
		Replicas:     make([]wire.ReplicaStats, len(gst.Replicas)),
	}
	for i, r := range gst.Replicas {
		out.Replicas[i] = wire.ReplicaStats{
			Replica:       r.Replica,
			InFlight:      r.InFlight,
			Queries:       r.Queries,
			Errors:        r.Errors,
			Hedges:        r.Hedges,
			Failovers:     r.Failovers,
			EwmaLatencyMs: float64(r.EwmaLatency) / float64(time.Millisecond),
		}
	}
	return out
}
