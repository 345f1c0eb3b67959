// Command ssam-serve stands up the SSAM query server: named regions
// behind HTTP/JSON with micro-batching, admission control, /statsz
// and Prometheus /metrics, sampled request traces at /tracez, and
// optional pprof (see internal/server).
//
//	ssam-serve -addr :8080 -max-inflight 256 -max-batch 64
//	ssam-serve -preload glove:0.01            # serve a ready-built region
//	ssam-serve -preload glove:0.01 -preload-shards 4 -preload-allow-partial
//	ssam-serve -preload glove:0.01 -preload-replicas 3   # p2c-routed replica group
//	ssam-serve -preload glove:0.001 -preload-replicas 3 -chaos-kill-replica 1 -chaos-after 2s
//	ssam-serve -preload gist:0.01 -preload-mode graph -preload-ef 96
//	ssam-serve -preload gist:0.01 -preload-mode quantized -preload-rerank 100
//	ssam-serve -preload gist:0.05 -preload-storage /tmp/gist.tier -preload-storage-budget 33554432
//	ssam-serve -trace-sample 100 -pprof       # observe a running server
//
// Shutdown is graceful: on SIGINT/SIGTERM the server first sheds new
// search traffic with 503 (clients fail over), then drains in-flight
// batches before exiting.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ssam"
	"ssam/internal/dataset"
	"ssam/internal/server"
	"ssam/internal/server/wire"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxInFlight := flag.Int("max-inflight", 256, "admitted search requests before shedding 503s")
	maxBatch := flag.Int("max-batch", 64, "micro-batcher size cap (batches form from load: queries queue only while every core is busy)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed load")
	preload := flag.String("preload", "", "serve a ready-built region: dataset[:scale], dataset in {glove,gist,alexnet}")
	preloadMode := flag.String("preload-mode", "linear", "indexing mode for the preloaded region")
	preloadVaults := flag.Int("preload-vaults", 0, "intra-query vault count for the preloaded region's linear scans (0 = min(32, GOMAXPROCS))")
	preloadM := flag.Int("preload-m", 0, "graph mode: per-layer degree bound M (0 = default 16)")
	preloadEfc := flag.Int("preload-efc", 0, "graph mode: efConstruction build beam (0 = default 100)")
	preloadEf := flag.Int("preload-ef", 0, "graph mode: efSearch query beam (0 = default 64)")
	preloadSample := flag.Int("preload-sample", 0, "quantized mode: codebook training sample size (0 = default 8192)")
	preloadRerank := flag.Int("preload-rerank", 0, "quantized mode: exact re-rank depth over the ADC top candidates (0 = ADC only)")
	preloadShards := flag.Int("preload-shards", 0, "partition the preloaded region across N scatter-gather shards (0 = unsharded)")
	preloadPartition := flag.String("preload-partition", "", "shard partitioner: roundrobin or hash (default roundrobin)")
	preloadDeadline := flag.Duration("preload-deadline", 0, "per-shard fan-out deadline for the preloaded region (0 = none)")
	preloadHedge := flag.Duration("preload-hedge", 0, "hedge a shard that has not answered within this delay (0 = off)")
	preloadAllowPartial := flag.Bool("preload-allow-partial", false, "serve degraded (partial) results when shards fail instead of erroring")
	preloadReplicas := flag.Int("preload-replicas", 0, "serve the preloaded region from N interchangeable replicas with p2c routing (0 = unreplicated)")
	preloadStorage := flag.String("preload-storage", "", "back the preloaded region's vectors with this file (out-of-core serving; linear/quantized modes)")
	preloadStorageBudget := flag.Int64("preload-storage-budget", 0, "resident page-cache byte budget for -preload-storage (0 = unlimited)")
	preloadStoragePrefetch := flag.Bool("preload-storage-prefetch", true, "overlap the next vault's read with the current scan for -preload-storage")
	preloadReplicaHedge := flag.Bool("preload-replica-hedge", true, "replicated regions: hedge to a second replica after the p99-derived delay")
	chaosKillReplica := flag.Int("chaos-kill-replica", -1, "inject a fault into this replica slot of the preloaded region (requires -preload-replicas)")
	chaosAfter := flag.Duration("chaos-after", 2*time.Second, "delay before the injected replica fault fires")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "shutdown drain budget")
	traceSample := flag.Int("trace-sample", 0, "head-sample 1 in N search requests into /tracez (0 = only X-SSAM-Trace requests)")
	traceRing := flag.Int("trace-ring", 128, "finished traces retained for /tracez")
	enablePprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.Parse()

	srv := server.New(server.Options{
		MaxInFlight:      *maxInFlight,
		MaxBatch:         *maxBatch,
		RetryAfter:       *retryAfter,
		TraceSampleEvery: *traceSample,
		TraceRing:        *traceRing,
	})

	if *preload != "" {
		var sharding *wire.ShardingConfig
		if *preloadShards > 0 {
			sharding = &wire.ShardingConfig{
				Shards:       *preloadShards,
				Partition:    *preloadPartition,
				DeadlineMs:   float64(*preloadDeadline) / float64(time.Millisecond),
				HedgeMs:      float64(*preloadHedge) / float64(time.Millisecond),
				AllowPartial: *preloadAllowPartial,
			}
		}
		var replicas *wire.ReplicasConfig
		if *preloadReplicas > 0 {
			replicas = &wire.ReplicasConfig{
				Replicas: *preloadReplicas,
				Hedge:    *preloadReplicaHedge,
			}
		}
		var storage *wire.StorageConfig
		if *preloadStorage != "" {
			storage = &wire.StorageConfig{
				Path:        *preloadStorage,
				BudgetBytes: *preloadStorageBudget,
				Prefetch:    *preloadStoragePrefetch,
			}
		}
		index := wire.IndexParams{
			M: *preloadM, EfConstruction: *preloadEfc, EfSearch: *preloadEf,
			Sample: *preloadSample, Rerank: *preloadRerank,
		}
		if err := preloadRegion(srv, *preload, *preloadMode, *preloadVaults, index, sharding, replicas, storage); err != nil {
			log.Fatalf("preload %q: %v", *preload, err)
		}
		if *chaosKillReplica >= 0 {
			region := regionName(*preload)
			idx, after := *chaosKillReplica, *chaosAfter
			go func() {
				time.Sleep(after)
				if err := srv.FailReplica(region, idx); err != nil {
					log.Printf("chaos: %v", err)
					return
				}
				log.Printf("chaos: killed replica %d of region %q", idx, region)
			}()
		}
	}

	// The pprof handlers ride an outer mux so the server's own routing
	// (and admission control) stays untouched; profiling is opt-in
	// because it exposes stacks and heap contents.
	var handler http.Handler = srv
	if *enablePprof {
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", srv)
		handler = outer
		log.Printf("pprof enabled at /debug/pprof/")
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("ssam-serve listening on %s (max-inflight=%d max-batch=%d, no batch timer: up to %d batches at once per region, scan kernel %s)",
		*addr, *maxInFlight, *maxBatch, runtime.GOMAXPROCS(0), ssam.ScanKernel())

	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("shutting down: shedding new traffic, draining in-flight batches")
	srv.StartDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	srv.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	log.Printf("bye")
}

// preloadRegion builds a synthetic paper workload directly into the
// registry (via the server's own HTTP surface is wasteful for a
// million rows, so this goes through an in-process request cycle only
// for create, then loads and builds through the same handlers the
// wire uses — keeping one code path).
func preloadRegion(srv *server.Server, arg, mode string, vaults int, index wire.IndexParams, sharding *wire.ShardingConfig, replicas *wire.ReplicasConfig, storage *wire.StorageConfig) error {
	name, scale := regionName(arg), 0.01
	if i := strings.IndexByte(arg, ':'); i >= 0 {
		s, err := strconv.ParseFloat(arg[i+1:], 64)
		if err != nil {
			return fmt.Errorf("bad scale: %v", err)
		}
		scale = s
	}
	var spec dataset.Spec
	switch name {
	case "glove":
		spec = dataset.GloVeSpec(scale)
	case "gist":
		spec = dataset.GISTSpec(scale)
	case "alexnet":
		spec = dataset.AlexNetSpec(scale)
	default:
		return fmt.Errorf("unknown dataset %q (want glove, gist or alexnet)", name)
	}
	if _, err := ssam.ParseMode(mode); err != nil {
		return err
	}
	layout := ""
	if sharding != nil {
		layout += fmt.Sprintf(", %d shards", sharding.Shards)
	}
	if replicas != nil {
		layout += fmt.Sprintf(", %d replicas", replicas.Replicas)
	}
	if storage != nil {
		layout += fmt.Sprintf(", storage %s (budget %d)", storage.Path, storage.BudgetBytes)
	}
	log.Printf("preloading %s: %d x %d vectors (scale %v), mode %s%s",
		name, spec.N, spec.Dim, scale, mode, layout)
	ds := dataset.Generate(spec)

	rows := make([][]float32, ds.N())
	for i := range rows {
		rows[i] = ds.Row(i)
	}
	if err := roundTrip(srv, "POST", "/regions", wire.CreateRegionRequest{
		Name: name, Dims: ds.Dim(),
		Config: wire.RegionConfig{Mode: mode, Vaults: vaults, Index: index, Sharding: sharding, Replicas: replicas, Storage: storage},
	}); err != nil {
		return err
	}
	// Load in chunks so a full-scale preload doesn't marshal one giant
	// JSON body.
	const chunk = 50000
	for lo := 0; lo < len(rows); lo += chunk {
		hi := min(lo+chunk, len(rows))
		if err := roundTrip(srv, "POST", "/regions/"+name+"/load", wire.LoadRequest{
			Vectors: rows[lo:hi], Append: lo > 0,
		}); err != nil {
			return err
		}
	}
	if err := roundTrip(srv, "POST", "/regions/"+name+"/build", nil); err != nil {
		return err
	}
	log.Printf("preloaded region %q ready", name)
	return nil
}

// regionName strips the :scale suffix off a -preload argument.
func regionName(arg string) string {
	if i := strings.IndexByte(arg, ':'); i >= 0 {
		return arg[:i]
	}
	return arg
}

// roundTrip drives the server's handler in-process with a synthetic
// request, so preloading exercises the same validation as the wire.
func roundTrip(srv *server.Server, method, path string, body any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	if rec.Code >= 300 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return nil
}
