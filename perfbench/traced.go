package main

import (
	"fmt"
	"slices"
	"time"
)

// traced measures the per-layer metrics. Half the time runs the
// open-loop schedule untraced, for the read tail and the
// tracing-overhead baseline; the other half runs it with &trace=1,
// between two /metrics scrapes.
func traced(cfg config, r *runner, d time.Duration, reps []setupTimes, edges [][][2]uint32, tmp string, meta map[string]any) (map[string]metric, error) {
	w := cfg.w
	c := newConn(r.in.base)
	defer c.close()
	firstWrite := len(r.wlog)

	plain := schedule(d/2, w.rate, w.writeRate, newPicker(len(r.pool), w, cfg.seed+1))
	r.openLoop(plain, false)

	tally := newSpanTally()
	r.onRead = func(_ opRecord, rtt time.Duration, rep *queryReply) { tally.add(rtt, rep.Trace) }
	before, err := scrapeMetrics(c)
	if err != nil {
		return nil, err
	}
	rt0 := readMetrics("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/cycles/total:gc-cycles")
	stop := samplePeakHeap()
	from := time.Now()
	ops := schedule(d/2, w.rate, w.writeRate, newPicker(len(r.pool), w, cfg.seed+3))
	phase := r.openLoop(ops, true)
	to := time.Now()
	heapPeak := stop()
	rt1 := readMetrics("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/cycles/total:gc-cycles")
	after, err := scrapeMetrics(c)
	if err != nil {
		return nil, err
	}
	r.onRead = nil
	// Closing the query log flushes it; later entries are dropped.
	if err := r.in.qlog.Close(); err != nil {
		return nil, err
	}
	lt, err := tallyLedger(tmp+"/"+queryLogName, from, to)
	if err != nil {
		return nil, err
	}
	for _, o := range [][]opRecord{plain, ops} {
		if l := scheduleLateness(o); l.behind() {
			return nil, fmt.Errorf("open-loop generator fell behind its schedule (start lateness p50 %v, last %v): invalid run", l.p50, l.last)
		}
	}

	dt, err := timeLayers(w, r.in.idx, r.pool, edges, tmp)
	if err != nil {
		return nil, err
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Client, wire and server root.
	t := tally
	nr, ne := float64(t.reads), float64(t.evaluated)
	put("client.rtt_us", ratio(t.rtt, nr), "us")
	put("wire.self_us", ratio(t.wire, nr), "us")
	put("server.self_us", ratio(t.rootSelf, nr), "us")
	put("text.resolve_us", dt.resolveUS, "us")

	// Result cache.
	hits := delta(before, after, "bigindex_qcache_hits_total")
	misses := delta(before, after, "bigindex_qcache_misses_total")
	shared := delta(before, after, "bigindex_qcache_shared_total")
	lookups := hits + misses + shared
	epochEv := delta(before, after, "bigindex_qcache_evictions_total", "reason", "epoch")
	allEv := delta(before, after, "bigindex_qcache_evictions_total")
	put("qcache.hit_ratio", ratio(hits, lookups), "ratio")
	put("qcache.hit_us", ratio(t.hitUS, float64(t.hits)), "us")
	put("qcache.shared_ratio", ratio(shared, lookups), "ratio")
	put("qcache.evict_epoch_per_1k", 1000*ratio(epochEv, nr), "count")
	put("qcache.evict_other_per_1k", 1000*ratio(allEv-epochEv, nr), "count")

	// Evaluation phases (Formula 4, Spec per layer, layer-0 checks).
	for _, p := range []string{"select", "search", "specialize", "generate"} {
		put("core."+p+"_us", ratio(t.phase[p], ne), "us")
	}
	for j := 0; j <= maxLayer; j++ {
		put(layerName("core.layer_share", j), ratio(float64(t.layer[j]), ne), "ratio")
		put(layerName("core.spec_us", j), ratio(t.spec[j], ne), "us")
	}
	kept := delta(before, after, "bigindex_prop41_candidates_total", "result", "kept")
	filtered := delta(before, after, "bigindex_prop41_candidates_total", "result", "filtered")
	put("core.prop41_kept_ratio", ratio(kept, kept+filtered), "ratio")
	qual := delta(before, after, "bigindex_gen_checks_total", "result", "qualified")
	checks := delta(before, after, "bigindex_gen_checks_total")
	put("core.gen_qualified_ratio", ratio(qual, checks), "ratio")
	put("core.candidates", ratio(t.candidates, ne), "count")
	put("core.topk_stops_per_1k", 1000*ratio(delta(before, after, "bigindex_topk_stops_total"), ne), "count")
	put("search.prepare_ms", dt.prepareMS, "ms")

	// Cost ledger, averaged over the traced phase's evaluated reads.
	n := float64(lt.n)
	for j := 0; j <= maxLayer; j++ {
		put(layerName("search.work", j), ratio(lt.layer[j], n), "count")
	}
	put("search.work_units", ratio(lt.units, n), "count")
	put("search.vertices_expanded", ratio(lt.expanded, n), "count")
	put("search.frontier_peak", ratio(lt.frontier, n), "count")
	put("shard.work_imbalance", ratio(lt.imbalance, float64(lt.sharded)), "ratio")

	// Shard coordinator and the shard RPC.
	shardQ := delta(before, after, "bigindex_shard_queries_total")
	put("shard.rounds", ratio(delta(before, after, "bigindex_shard_rounds_sum"), delta(before, after, "bigindex_shard_rounds_count")), "count")
	put("shard.tasks", ratio(delta(before, after, "bigindex_shard_tasks_total"), shardQ), "count")
	put("shard.portal_msgs", ratio(delta(before, after, "bigindex_shard_portal_messages_total"), shardQ), "count")
	put("shard.round_us", ratio(t.roundUS, float64(t.rounds)), "us")
	calls := delta(before, after, "bigindex_shardrpc_calls_total")
	put("shardrpc.expand_calls", ratio(delta(before, after, "bigindex_shardrpc_calls_total", "op", "expand"), ne), "count")
	put("shardrpc.verify_calls", ratio(delta(before, after, "bigindex_shardrpc_calls_total", "op", "verify"), ne), "count")
	put("shardrpc.bytes_kb", ratio(delta(before, after, "bigindex_shardrpc_peer_bytes_total")/1024, ne), "KiB")
	put("shardrpc.call_us", 1e6*ratio(delta(before, after, "bigindex_shardrpc_call_seconds_sum"), delta(before, after, "bigindex_shardrpc_call_seconds_count")), "us")
	put("shardrpc.retry_ratio", ratio(calls-delta(before, after, "bigindex_shardrpc_calls_total", "outcome", "ok"), calls), "ratio")
	put("shardrpc.wire_query_share", ratio(float64(t.remote), ne), "ratio")

	// Writes: Mutator, WAL, delta maintenance.
	var serverMS, affected []float64
	paths := map[string]float64{}
	for _, o := range r.wlog[firstWrite:] {
		serverMS = append(serverMS, ms(o.server))
		affected = append(affected, o.affected)
		paths[o.path]++
	}
	nw := float64(len(serverMS))
	put("mutate.server_ms", mean(serverMS), "ms")
	put("wal.append_ms", dt.walMS, "ms")
	put("mutate.apply_ms", dt.applyMS, "ms")
	for _, p := range []string{"absorbed", "delta", "rebuild"} {
		put("mutate.path_share."+p, ratio(paths[p], nw), "ratio")
	}
	put("mutate.affected_frac", mean(affected), "ratio")
	plainReads, plainWrites := latencies(plain)
	_, tracedWrites := latencies(ops)
	mut := append(plainWrites, tracedWrites...)
	put("mutate_p50_ms", quantile(mut, 0.5), "ms")
	put("mutate_p90_ms", quantile(mut, 0.9), "ms")
	put("core.post_swap_p50_ms", postSwapP50(r, ops, phase), "ms")

	// Build and set-up.
	var builds, warms, plans []float64
	for _, s := range reps {
		builds = append(builds, ms(s.build))
		warms = append(warms, ms(s.warm))
		plans = append(plans, ms(s.plan))
	}
	put("build.total_ms", median(builds), "ms")
	for _, p := range []string{"config", "gen", "bisim"} {
		put("build."+p+"_ms", buildPhaseMS(after, p), "ms")
	}
	put("setup.warm_ms", median(warms), "ms")
	put("setup.plan_ms", median(plans), "ms")

	// Go runtime over the traced phase.
	put("go.gc_cpu_frac", ratio(rt1[0]-rt0[0], rt1[1]-rt0[1]), "ratio")
	put("go.gc_per_1k", 1000*ratio(rt1[2]-rt0[2], nr), "count")
	put("go.heap_peak_mb", heapPeak/(1<<20), "MiB")

	// Read tail of the untraced phase, at the highest percentile its
	// sample supports, and the tracing overhead: the traced phase's p50
	// against the untraced one.
	tq := tailQuantile(len(plainReads))
	put("query_tail_ms", quantile(plainReads, tq), "ms")
	meta["query_tail_quantile"] = tq
	tracedReads, _ := latencies(ops)
	base := quantile(plainReads, 0.5)
	put("query_open_p50_ms", base, "ms")
	put("trace.overhead_pct", 100*ratio(quantile(tracedReads, 0.5)-base, base), "%")

	meta["traced"] = map[string]any{"reads": t.reads, "evaluated": t.evaluated, "ledger_entries": lt.n}
	return m, nil
}

// postSwapP50 is the median latency of traced reads sent within 100 ms
// after a write was acknowledged, when the cache has just been emptied
// and the evaluators re-prepare.
func postSwapP50(r *runner, ops []opRecord, phase time.Time) float64 {
	r.wmu.Lock()
	acks := slices.Clone(r.acks)
	r.wmu.Unlock()
	var xs []float64
	for _, o := range ops {
		if o.write {
			continue
		}
		at := phase.Add(o.start)
		i, _ := slices.BinarySearchFunc(acks, at, func(a, t time.Time) int { return a.Compare(t) })
		if i > 0 && at.Sub(acks[i-1]) <= 100*time.Millisecond {
			xs = append(xs, ms(o.latency()))
		}
	}
	return quantile(xs, 0.5)
}

// samplePeakHeap samples the heap every 10 ms until stop is called,
// which waits for the sampler and returns the peak in bytes.
func samplePeakHeap() (stop func() float64) {
	var top float64
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tk := time.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		for {
			top = max(top, readMetrics("/memory/classes/heap/objects:bytes")[0])
			select {
			case <-done:
				return
			case <-tk.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		<-exited // the sampler's last write happens before this
		return top
	}
}
