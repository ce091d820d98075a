package bench

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"bigindex/internal/datagen"
	"bigindex/internal/obs"
	"bigindex/internal/shard"
	"bigindex/internal/shardrpc"
)

// fleetObsDataset configures the fleetobs experiment (SetFleetObsConfig;
// the CI smoke uses demo).
var fleetObsDataset = "yago-s"

// SetFleetObsConfig overrides the fleetobs experiment's dataset; empty
// keeps the default.
func SetFleetObsConfig(dataset string) {
	if dataset != "" {
		fleetObsDataset = dataset
	}
}

// fleetObsOverheadBudget is the enforced telemetry tax at the production
// sampling rate (1%): p50 may not exceed the telemetry-off baseline by
// more than 5%, with an absolute floor so sub-millisecond baselines
// don't fail on scheduler noise alone.
const (
	fleetObsOverheadPct   = 0.05
	fleetObsOverheadFloor = 500 * time.Microsecond
)

// startFleetObs is startFleet with a client-side telemetry sampling rate.
func startFleetObs(plan *shard.Plan, n int, spec func(i int) string, sample float64) (*shardNetFleet, error) {
	f := &shardNetFleet{}
	peerSpec := ""
	for i := 0; i < n; i++ {
		blocks, err := shardrpc.ParseBlocks(spec(i), plan.NumBlocks())
		if err != nil {
			f.close()
			return nil, err
		}
		srv := shardrpc.NewServer(plan, shardrpc.ServerOptions{Blocks: blocks, BlockSize: BlockSize})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		if peerSpec != "" {
			peerSpec += ";"
		}
		peerSpec += addr.String() + "=" + spec(i)
	}
	peers, err := shardrpc.ParsePeers(peerSpec)
	if err != nil {
		f.close()
		return nil, err
	}
	f.client = shardrpc.NewClient(shardrpc.ClientOptions{
		Peers: peers, BlockSize: BlockSize, TelemetrySample: sample,
	})
	return f, nil
}

// tracedQueryCtx arms a context the way the HTTP server arms a real
// query: trace root span, cost ledger, coverage collector. Telemetry
// heads only ride the wire when a span is present, so the bench must
// install one to measure the sampled path at all.
func tracedQueryCtx() (context.Context, *obs.Ledger, *shard.Coverage) {
	cov := shard.NewCoverage()
	led := obs.NewLedger()
	ctx := shard.ContextWithCoverage(context.Background(), cov)
	ctx = obs.ContextWithSpan(ctx, obs.NewTrace("bench").Root())
	ctx = obs.ContextWithLedger(ctx, led)
	return ctx, led, cov
}

// fleetObsDigestPass is digestPass under a traced context, additionally
// counting queries whose ledger shows stitched remote telemetry.
func fleetObsDigestPass(prep ctxSearcher, queries []datagen.Query) (digest uint64, lossy, stitched int, err error) {
	h := fnv.New64a()
	for _, q := range queries {
		ctx, led, cov := tracedQueryCtx()
		ms, err := prep.SearchCtx(ctx, q.Keywords, shardK)
		if err != nil {
			return 0, 0, 0, err
		}
		if cov.Report() != nil {
			lossy++
		}
		if led.Snapshot().RemoteCalls > 0 {
			stitched++
		}
		matchDigest(h, ms)
	}
	return h.Sum64(), lossy, stitched, nil
}

// fleetObsTimedPass is timedPass under a traced context: the measured
// cost includes building the span tree, grafting remote summaries, and
// merging remote ledgers — the full price a sampled production query pays.
func fleetObsTimedPass(prep ctxSearcher, queries []datagen.Query) (p50, p90 time.Duration, lossy int, err error) {
	times := make([]time.Duration, 0, len(queries))
	for _, q := range queries {
		med, err := timeIt(QueryRepeats, func() error {
			ctx, _, cov := tracedQueryCtx()
			_, e := prep.SearchCtx(ctx, q.Keywords, shardK)
			if e == nil && cov.Report() != nil {
				lossy++
			}
			return e
		})
		if err != nil {
			return 0, 0, lossy, err
		}
		times = append(times, med)
	}
	slices.Sort(times)
	return times[len(times)/2], times[len(times)*9/10], lossy, nil
}

// RunFleetObs measures distributed telemetry overhead and enforces the
// standing invariant that telemetry never changes answers. One fixed
// 2-server fleet layout is run at sampling rates 0, 0.01 (production
// default), and 1.0. Every mode's answer digest must equal the sequential
// baseline, and the 1% mode's p50 may not exceed the telemetry-off p50
// by more than 5% (with an absolute noise floor) — both enforced as
// errors, not just reported.
func RunFleetObs() (*Report, error) {
	f, err := GetFixture(fleetObsDataset)
	if err != nil {
		return nil, err
	}
	g := f.DS.Graph
	queries := datagen.Queries(f.DS, datagen.WorkloadOptions{
		Sizes:    []int{3, 3, 4, 4, 5, 5},
		MinCount: 20,
		Seed:     11,
	})
	if len(queries) == 0 {
		return nil, fmt.Errorf("bench: fleetobs workload is empty on %s", fleetObsDataset)
	}

	seqPrep, err := prepBKWS(g, nil)
	if err != nil {
		return nil, err
	}
	seqDigest, lossy, err := digestPass(seqPrep, queries)
	if err != nil {
		return nil, err
	}
	if lossy != 0 {
		return nil, fmt.Errorf("bench: sequential pass reported %d lossy queries", lossy)
	}

	r := &Report{ID: "fleetobs",
		Title: fmt.Sprintf("Distributed telemetry overhead on %s (bkws over 2 shardrpc servers, %d coordinator workers, k = %d)",
			fleetObsDataset, shardNetWorkers, shardK),
		Header: []string{"mode", "sample", "p50", "p90", "p50 overhead vs off", "stitched", "digest"}}

	type mode struct {
		name   string
		sample float64
	}
	modes := []mode{
		{"tel-off", 0},
		{"tel-1pct", 0.01},
		{"tel-100pct", 1},
	}

	var offP50, pctP50 time.Duration
	for _, m := range modes {
		plan := shard.NewPlanner(shard.Options{BlockSize: BlockSize}).PlanGraph(g)
		fleet, err := startFleetObs(plan, 2, func(i int) string { return fmt.Sprintf("%d%%2", i) }, m.sample)
		if err != nil {
			return nil, fmt.Errorf("bench: %s fleet: %w", m.name, err)
		}
		prep, err := prepBKWS(g, func(p *shard.Plan) shard.ShardServer { return fleet.client.For(p) })
		var digest uint64
		var stitched int
		if err == nil {
			digest, lossy, stitched, err = fleetObsDigestPass(prep, queries)
		}
		var p50, p90 time.Duration
		var timedLossy int
		if err == nil {
			p50, p90, timedLossy, err = fleetObsTimedPass(prep, queries)
			lossy += timedLossy
		}
		fleet.close()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", m.name, err)
		}
		if digest != seqDigest {
			return nil, fmt.Errorf("bench: %s answers diverged under telemetry: digest %016x, sequential %016x",
				m.name, digest, seqDigest)
		}
		if lossy != 0 {
			return nil, fmt.Errorf("bench: %s lost coverage on %d queries", m.name, lossy)
		}
		// Sanity on the measurement itself: at rate 1.0 every query must
		// stitch (otherwise the overhead gate below is vacuous); at rate 0
		// none may.
		if m.sample >= 1 && stitched != len(queries) {
			return nil, fmt.Errorf("bench: %s stitched %d/%d queries; telemetry did not engage",
				m.name, stitched, len(queries))
		}
		if m.sample == 0 && stitched != 0 {
			return nil, fmt.Errorf("bench: %s stitched %d queries with sampling off", m.name, stitched)
		}
		overhead := "baseline"
		switch m.name {
		case "tel-off":
			offP50 = p50
		default:
			if offP50 > 0 {
				overhead = fmt.Sprintf("%+.1f%%", 100*(float64(p50)/float64(offP50)-1))
			}
			if m.name == "tel-1pct" {
				pctP50 = p50
			}
		}
		r.AddRow(m.name, fmt.Sprintf("%g", m.sample), p50, p90, overhead,
			fmt.Sprintf("%d/%d", stitched, len(queries)), fmt.Sprintf("%016x", digest))
	}

	budget := offP50 + time.Duration(float64(offP50)*fleetObsOverheadPct)
	if floor := offP50 + fleetObsOverheadFloor; budget < floor {
		budget = floor
	}
	if pctP50 > budget {
		return nil, fmt.Errorf("bench: telemetry overhead gate failed: p50 %v at 1%% sampling exceeds budget %v (off baseline %v + max(5%%, %v))",
			pctP50, budget, offP50, fleetObsOverheadFloor)
	}
	r.Notef("all modes digest byte-identical to sequential bkws — telemetry on or off never changes answers (enforced)")
	r.Notef("overhead gate: p50 at 1%% sampling %v vs off %v, budget %v (5%% + %v noise floor) — enforced", pctP50, offP50, budget, fleetObsOverheadFloor)
	return r, nil
}
