package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/datagen"
	"bigindex/internal/obs"
	"bigindex/internal/server"
	"bigindex/internal/shard"
	"bigindex/internal/shardrpc"
	"bigindex/internal/wal"
)

// Serving parameters, mirroring bigindexd's defaults so the benchmark
// measures the configuration that ships.
const (
	dmax         = 4
	blockSize    = shard.DefaultBlockSize
	queryTimeout = 30 * time.Second
	fleetPeers   = 2
)

// datasetByName generates one of the datasets the workloads use. demo
// mirrors bigindexd's default preset and keeps the self-tests fast.
func datasetByName(name string) (*datagen.Dataset, error) {
	switch name {
	case "demo":
		return datagen.Generate(datagen.Options{
			Name: "demo", Entities: 1500, Terms: 120, LeafTypes: 8, Seed: 4242,
		}), nil
	case "yago-s":
		return datagen.YagoSmall(), nil
	case "dbpedia-s":
		return datagen.DbpediaSmall(), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
}

// setupTimes splits one set-up into its steps.
type setupTimes struct {
	build, plan, warm, total time.Duration
}

// instance is one served index: the server behind a loopback listener,
// plus the shard fleet and the mutation service when the workload uses
// them. Everything it starts is stopped by close.
type instance struct {
	w      workload
	idx    *core.Index
	reg    *obs.Registry
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	peers  []*shardrpc.Server
	client *shardrpc.Client
	wlog   *wal.Log
	qlog   *obs.QueryLog
	times  setupTimes
}

// setupOptions are the parts of a set-up that differ between runs.
type setupOptions struct {
	dir      string // scratch directory for the WAL
	queryLog string // query-log path ("" = no query log)
}

// setup builds the index, starts the fleet and the server, and warms
// every evaluator the workload uses at every layer, timing each step.
// warmKeys holds one pool key per algorithm for the warm-up queries.
func setup(w workload, ds *datagen.Dataset, warmKeys []poolKey, opt setupOptions) (*instance, error) {
	in := &instance{w: w, reg: obs.NewRegistry()}
	obs.RegisterRuntimeMetrics(in.reg)
	t0 := time.Now()

	bopt := core.DefaultBuildOptions()
	bopt.Obs = in.reg
	idx, err := core.Build(ds.Graph, ds.Ont, bopt)
	if err != nil {
		return nil, fmt.Errorf("building index: %w", err)
	}
	in.idx = idx
	t1 := time.Now()

	if w.fleet {
		if err := in.startFleet(); err != nil {
			in.close()
			return nil, err
		}
	}
	t2 := time.Now()

	sopt := server.Options{
		DMax:         dmax,
		BlockSize:    blockSize,
		Metrics:      in.reg,
		QueryTimeout: queryTimeout,
		MaxInFlight:  4 * runtime.GOMAXPROCS(0),
		Cache:        server.CacheOptions{Size: 4096, TTL: time.Minute, Bytes: 64 << 20},
		ShardClient:  in.client,
	}
	if w.fleet {
		sopt.Shards = 1
	}
	if opt.queryLog != "" {
		in.qlog, err = obs.OpenQueryLog(obs.QueryLogOptions{Path: opt.queryLog})
		if err != nil {
			in.close()
			return nil, fmt.Errorf("opening query log: %w", err)
		}
		sopt.QueryLog = in.qlog
	}
	in.srv = server.New(idx, ds.Ont, sopt)
	if w.writeRate > 0 {
		in.wlog, _, err = wal.Open(filepath.Join(opt.dir, "edges.wal"), wal.Options{BaseDigest: ds.Graph.Digest()})
		if err != nil {
			in.close()
			return nil, fmt.Errorf("opening WAL: %w", err)
		}
		server.NewMutator(in.srv, 0, server.MutatorOptions{WAL: in.wlog, MaxWALBytes: 64 << 20})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.close()
		return nil, err
	}
	in.base = "http://" + ln.Addr().String()
	in.hs = &http.Server{Handler: in.srv, ReadTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute}
	in.served = make(chan error, 1)
	go func() { in.served <- in.hs.Serve(ln) }()
	t3 := time.Now()

	if err := in.warm(warmKeys); err != nil {
		in.close()
		return nil, err
	}
	t4 := time.Now()
	in.times = setupTimes{build: t1.Sub(t0), plan: t2.Sub(t1), warm: t4.Sub(t3), total: t4.Sub(t0)}
	return in, nil
}

// startFleet plans the data graph and serves its blocks from two
// shardrpc servers on loopback TCP, block i on server i%2 (the net-2
// layout of benchrunner -exp shardnet).
func (in *instance) startFleet() error {
	plan := shard.NewPlanner(shard.Options{BlockSize: blockSize}).PlanGraph(in.idx.Data())
	spec := ""
	for i := 0; i < fleetPeers; i++ {
		blocks := fmt.Sprintf("%d%%%d", i, fleetPeers)
		set, err := shardrpc.ParseBlocks(blocks, plan.NumBlocks())
		if err != nil {
			return err
		}
		s := shardrpc.NewServer(plan, shardrpc.ServerOptions{Blocks: set, BlockSize: blockSize})
		in.peers = append(in.peers, s)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("shard server listen: %w", err)
		}
		if spec != "" {
			spec += ";"
		}
		spec += addr.String() + "=" + blocks
	}
	peers, err := shardrpc.ParsePeers(spec)
	if err != nil {
		return err
	}
	in.client = shardrpc.NewClient(shardrpc.ClientOptions{
		Peers:           peers,
		BlockSize:       blockSize,
		TelemetrySample: 0.01,
		Metrics:         shardrpc.NewMetrics(in.reg),
	})
	return nil
}

// warm sends, for every algorithm, one uncached query pinned to each
// layer, so every evaluator prepares every layer (and, on the fleet,
// the coordinator connects to every peer at layer 0) before timing.
func (in *instance) warm(keys []poolKey) error {
	c := newConn(in.base)
	defer c.close()
	for _, k := range keys {
		for j := 0; j < in.idx.NumLayers(); j++ {
			path := k.path(in.w, fmt.Sprintf("&layer=%d", j))
			if !in.w.nocache {
				path += "&nocache=1"
			}
			rep, err := c.query(path)
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", path, err)
			}
			if rep.Degraded {
				return fmt.Errorf("warm-up %s: degraded answer", path)
			}
		}
	}
	return nil
}

// close stops the HTTP server, the fleet and the logs, and waits for
// the serving goroutine to return.
func (in *instance) close() error {
	var errs []error
	if in.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, in.hs.Shutdown(ctx))
		cancel()
		if err := <-in.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if in.client != nil {
		in.client.Close()
	}
	for _, p := range in.peers {
		errs = append(errs, p.Close())
	}
	if in.wlog != nil {
		errs = append(errs, in.wlog.Close())
	}
	if in.qlog != nil {
		errs = append(errs, in.qlog.Close())
	}
	return errors.Join(errs...)
}
