// Command perfbench is the repository's benchmark: it serves a BiG-index
// with server.New behind a loopback listener and drives /query (and, in
// one workload, POST /admin/edges) with generated traffic, checking every
// answer against a reference digest.
//
//	perfbench --workload hot-cached --seed 1 --seconds 20 --trace 0
//	perfbench --workload all   # every workload in turn, one result line each
//
// An untraced run (--trace 0) reports the end-to-end metrics: an
// open-loop phase at the workload's fixed rate times each request from
// its due time (reported in the metadata line), and a closed-loop phase
// on the same connections gives median latency, capacity and cost per
// read. A traced run (--trace 1) reports the per-layer
// metrics: it sends &trace=1 on every read and reads the span trees,
// scrapes /metrics, reads the cost ledger from a query log, and times
// direct calls to layer functions. The last line of standard output is
// the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// queryLogName is the traced run's query log, in its scratch directory.
const queryLogName = "queries.jsonl"

// config is one benchmark invocation.
type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch directory for the WAL and the query log
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", `workload name, or "all" to run every workload in turn`)
	seed := fs.Int64("seed", 1, "workload seed: the queries and the write stream depend only on it and the dataset")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := fs.String("dir", ".bench_build", "scratch directory (created if missing)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		ws = []workload{w}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range ws {
		res, err := benchmark(config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir}, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		meta, _ := json.Marshal(res.meta)
		out, err := json.Marshal(res.out)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(meta))
		fmt.Fprintln(stdout, string(out))
		if !res.out.Correct {
			fmt.Fprintf(stderr, "perfbench: %s: answers did not match the reference\n", w.name)
			code = 1
		}
	}
	return code
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	meta map[string]any
	out  output
}

// benchmark runs one invocation end to end.
func benchmark(cfg config, log io.Writer) (*result, error) {
	w := cfg.w
	ds, err := datasetByName(w.dataset)
	if err != nil {
		return nil, err
	}
	pool, err := buildPool(ds, w, cfg.seed)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	warmKeys, err := warmPool(ds, w)
	if err != nil {
		return nil, err
	}
	qlogPath := ""
	if cfg.trace {
		qlogPath = tmp + "/" + queryLogName
	}

	// Set up several times and keep the last instance.
	var in *instance
	var reps []setupTimes
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		sub, err := os.MkdirTemp(tmp, "setup-")
		if err != nil {
			return nil, err
		}
		opt := setupOptions{dir: sub}
		if i == setupReps-1 {
			opt.queryLog = qlogPath
		}
		inst, err := setup(w, ds, warmKeys, opt)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		reps = append(reps, inst.times)
		if i < setupReps-1 {
			if err := inst.close(); err != nil {
				return nil, err
			}
			continue
		}
		in = inst
	}
	closed := false
	defer func() {
		if !closed {
			in.close()
		}
	}()
	heap := liveHeap()
	fmt.Fprintf(log, "perfbench: %s seed %d on %s: |V|=%d |E|=%d layers=%d pool=%d keys, setup %v\n",
		w.name, cfg.seed, ds.Name, ds.Graph.NumVertices(), ds.Graph.NumEdges(), in.idx.NumLayers(), len(pool),
		reps[len(reps)-1].total.Round(time.Millisecond))

	r := newRunner(w, in, pool)
	var edges [][][2]uint32
	if w.writeRate > 0 {
		edges = writeEdges(ds.Graph, cfg.seed)
		if err := r.setWriteEdges(edges); err != nil {
			return nil, err
		}
	}
	if err := r.references(); err != nil {
		return nil, err
	}
	if !w.nocache {
		// Let the cache fill before timing: every key once through the
		// cached path, checked like any other read.
		c := newConn(in.base)
		for i := range r.pool {
			rec := opRecord{key: i}
			r.do(c, &rec, time.Now(), false)
		}
		c.close()
	}

	meta := map[string]any{
		"workload":   w.name,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"seconds":    cfg.seconds,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"rate_rps":   w.rate,
		"write_rps":  w.writeRate,
		"conns":      conns,
		"dataset": map[string]any{
			"name": ds.Name, "vertices": ds.Graph.NumVertices(), "edges": ds.Graph.NumEdges(),
			"layers": in.idx.NumLayers(),
		},
		"pool_keys": len(r.pool),
	}
	var repS []float64
	for _, s := range reps {
		repS = append(repS, s.total.Seconds())
	}
	meta["setup_reps_s"] = repS
	span := time.Duration(cfg.seconds * float64(time.Second))
	var m map[string]metric
	if cfg.trace {
		m, err = traced(cfg, r, span, reps, edges, tmp, meta)
	} else {
		m, err = untraced(cfg, r, span, reps, heap, meta)
	}
	if err != nil {
		return nil, err
	}
	if w.writeRate > 0 {
		if err := r.finalCheck(); err != nil {
			return nil, err
		}
	}
	closed = true
	if err := in.close(); err != nil {
		return nil, fmt.Errorf("shutting down: %w", err)
	}

	failed := r.fails.total()
	if failed > 0 {
		meta["failures"] = r.fails.byKind
		for _, f := range r.fails.first {
			fmt.Fprintln(log, "perfbench: failure:", f)
		}
	}
	if cfg.trace {
		m["fail_frac"] = metric{ratio(float64(failed), float64(r.fails.attempted)), "ratio"}
	}
	return &result{meta: meta, out: output{
		Correct:   r.fails.mismatch == 0,
		Attempted: r.fails.attempted,
		Failed:    failed,
		Metrics:   m,
	}}, nil
}

// untraced measures the end-to-end metrics: a quarter of the time
// open-loop at the workload's rate, the rest closed-loop. Median latency
// comes from the closed loop: on a shared 2-vCPU machine, open-loop p50
// at these low rates moved by up to 30% between two sets of ten runs
// whose CPU per read moved 4%. The traced run reports the open-loop p50
// as query_open_p50_ms.
func untraced(cfg config, r *runner, d time.Duration, reps []setupTimes, heap float64, meta map[string]any) (map[string]metric, error) {
	w := cfg.w
	open := schedule(d/4, w.rate, w.writeRate, newPicker(len(r.pool), w, cfg.seed+1))
	r.openLoop(open, false)
	late := scheduleLateness(open)
	if late.behind() {
		return nil, fmt.Errorf("open-loop generator fell behind its schedule (start lateness p50 %v, last %v): invalid run",
			late.p50, late.last)
	}
	cl := r.closedLoop(d-d/4, cfg.seed+2)
	if cl.reads == 0 || len(cl.qps) == 0 || len(cl.p50MS) == 0 {
		return nil, fmt.Errorf("closed-loop phase completed no reads")
	}

	reads, writes := latencies(open)
	if !supports(len(reads), 0.5) {
		return nil, fmt.Errorf("%d open-loop reads are too few for a median", len(reads))
	}
	tq := tailQuantile(len(reads))
	meta["open_loop"] = map[string]any{
		"reads": len(reads), "writes": len(writes),
		"late_p50_ms": ms(late.p50), "late_p99_ms": ms(late.p99),
		"p50_ms": quantile(reads, 0.5), "p99_ms": quantile(reads, 0.99),
		"tail_quantile": tq, "tail_ms": quantile(reads, tq),
	}
	meta["closed_loop"] = map[string]any{
		"reads": cl.reads, "seconds": cl.elapsed.Seconds(), "window_qps": cl.qps, "window_cpu_ms": cl.cpuMS, "window_p50_ms": cl.p50MS,
	}
	if len(writes) > 0 {
		meta["mutate_ms"] = map[string]any{"n": len(writes), "p50": quantile(writes, 0.5), "p90": quantile(writes, 0.9)}
	}
	var totals []float64
	for _, s := range reps {
		totals = append(totals, s.total.Seconds())
	}
	return map[string]metric{
		"setup_s":            {median(totals), "s"},
		"query_p50_ms":       {median(cl.p50MS), "ms"},
		"query_qps":          {median(cl.qps), "1/s"},
		"cpu_ms_per_query":   {median(cl.cpuMS), "ms"},
		"alloc_kb_per_query": {float64(cl.alloc) / 1024 / float64(cl.reads), "KiB"},
		"heap_mb":            {heap / (1 << 20), "MiB"},
	}, nil
}

// latencies splits a phase's latencies (ms from due time) by kind.
func latencies(ops []opRecord) (reads, writes []float64) {
	for _, o := range ops {
		if o.write {
			writes = append(writes, ms(o.latency()))
		} else {
			reads = append(reads, ms(o.latency()))
		}
	}
	return reads, writes
}

// commit names the source revision, when the build script could tell.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
