package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"bigindex/internal/core"
	"bigindex/internal/graph"
	"bigindex/internal/obs"
	"bigindex/internal/search"
	"bigindex/internal/search/bidir"
	"bigindex/internal/search/bkws"
	"bigindex/internal/search/blinks"
	"bigindex/internal/text"
	"bigindex/internal/wal"
)

// maxLayer bounds the per-index-layer metrics (L0…L6): the index is
// built with at most seven layers.
const maxLayer = 6

// spanTally aggregates the traced reads' span trees.
type spanTally struct {
	mu sync.Mutex

	reads, evaluated, hits, remote int
	rtt, wire, rootSelf            float64 // µs sums over all reads
	hitUS                          float64 // Cache span µs over hits
	phase                          map[string]float64
	layer                          [maxLayer + 1]int
	spec                           [maxLayer + 1]float64
	candidates                     float64
	rounds                         int
	roundUS                        float64
}

func newSpanTally() *spanTally { return &spanTally{phase: map[string]float64{}} }

// add folds in one traced read. Evaluated reads are those whose own
// trace holds the evaluation (a Select span): cache hits and
// singleflight followers have none.
func (t *spanTally) add(rtt time.Duration, root *span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reads++
	rttUS := us(rtt)
	t.rtt += rttUS
	if root == nil {
		return
	}
	t.wire += rttUS - float64(root.DurUS)
	t.rootSelf += float64(root.selfUS())
	evaluated, remote := false, false
	for _, c := range root.Children {
		switch c.Name {
		case "Cache":
			if c.Attrs["outcome"] == "hit" {
				t.hits++
				t.hitUS += float64(c.DurUS)
			}
		case "Select":
			evaluated = true
			t.phase["select"] += float64(c.DurUS)
		case "Search":
			t.phase["search"] += float64(c.DurUS)
			if m, ok := c.attrInt("layer"); ok && m <= maxLayer {
				t.layer[m]++
			}
		case "Specialize":
			t.phase["specialize"] += float64(c.DurUS)
			if n, ok := c.attrInt("root_candidates"); ok {
				t.candidates += float64(n)
			}
		case "Generate":
			t.phase["generate"] += float64(c.DurUS)
		}
	}
	root.walk(func(s span) {
		if j, ok := specLayer(s.Name); ok && j <= maxLayer {
			t.spec[j] += float64(s.DurUS)
		}
		if strings.HasPrefix(s.Name, "shard-round-") {
			t.rounds++
			t.roundUS += float64(s.DurUS)
		}
		if strings.HasPrefix(s.Name, "rpc:") {
			remote = true
		}
	})
	if evaluated {
		t.evaluated++
		if remote {
			t.remote++
		}
	}
}

// directTimes are timings of direct calls to public layer functions,
// made by the traced run after its load phases.
type directTimes struct {
	resolveUS float64 // text.Index.Resolve per keyword set, median
	prepareMS float64 // search Prepare over every algorithm and layer
	walMS     float64 // wal.Log.Append of one 4-edge batch with fsync, median
	applyMS   float64 // core.Index.Applied of one batch, median
}

func newAlgorithm(name string) search.Algorithm {
	switch name {
	case "bkws":
		return bkws.New(dmax)
	case "bidir":
		return bidir.New(dmax)
	default:
		return blinks.New(blinks.Options{DMax: dmax, BlockSize: blockSize})
	}
}

// timeLayers makes the direct calls.
func timeLayers(w workload, idx *core.Index, pool []poolKey, edges [][][2]uint32, dir string) (directTimes, error) {
	var dt directTimes
	g := idx.Data()
	tix := text.NewIndex(g.Dict(), g)
	var res []float64
	for _, k := range pool {
		t := time.Now()
		if _, _, err := tix.Resolve(slices.Clone(k.keywords), g); err != nil {
			return dt, fmt.Errorf("text.Resolve %v: %w", k.keywords, err)
		}
		res = append(res, us(time.Since(t)))
	}
	dt.resolveUS = median(res)

	t := time.Now()
	for _, a := range w.algos {
		algo := newAlgorithm(a)
		for j := 0; j < idx.NumLayers(); j++ {
			if _, err := algo.Prepare(idx.LayerGraph(j)); err != nil {
				return dt, fmt.Errorf("%s prepare layer %d: %w", a, j, err)
			}
		}
	}
	dt.prepareMS = ms(time.Since(t))

	if w.writeRate == 0 {
		return dt, nil
	}
	var es []graph.Edge
	for _, e := range edges[0] {
		es = append(es, graph.Edge{From: graph.V(e[0]), To: graph.V(e[1])})
	}
	log, _, err := wal.Open(filepath.Join(dir, "direct.wal"), wal.Options{BaseDigest: g.Digest()})
	if err != nil {
		return dt, err
	}
	var appends []float64
	for i := 1; i <= 20; i++ {
		b := wal.Batch{Seq: uint64(i), AddEdges: es}
		if i%2 == 0 {
			b = wal.Batch{Seq: uint64(i), RemoveEdges: es}
		}
		t := time.Now()
		if err := log.Append(b); err != nil {
			log.Close()
			return dt, fmt.Errorf("wal append: %w", err)
		}
		appends = append(appends, ms(time.Since(t)))
	}
	if err := log.Close(); err != nil {
		return dt, err
	}
	dt.walMS = median(appends)

	var applies []float64
	cur := idx
	for i := 0; i < 10; i++ {
		d := core.Delta{AddEdges: es}
		if i%2 == 1 {
			d = core.Delta{RemoveEdges: es}
		}
		t := time.Now()
		next, _, err := cur.Applied(d, core.DeltaOptions{MaxAffectedFrac: 0.25})
		if err != nil {
			// Over the damage budget: the server would rebuild instead.
			patched, perr := graph.Patch(cur.Data(), nil, d.AddEdges, d.RemoveEdges)
			if perr != nil {
				return dt, perr
			}
			if next, err = cur.Refreshed(patched); err != nil {
				return dt, err
			}
		}
		applies = append(applies, ms(time.Since(t)))
		cur = next
	}
	dt.applyMS = median(applies)
	return dt, nil
}

// ledgerTally averages the cost ledger over the query log's evaluated
// entries inside a time window.
type ledgerTally struct {
	n                                    int
	layer                                [maxLayer + 1]float64
	units, expanded, frontier, imbalance float64
	sharded                              int
}

func tallyLedger(path string, from, to time.Time) (ledgerTally, error) {
	var lt ledgerTally
	entries, _, err := obs.ReadQueryLogFile(path)
	if err != nil {
		return lt, err
	}
	for _, e := range entries {
		if e.TS.Before(from) || e.TS.After(to) || e.Cached || e.Outcome != "ok" || e.Cost == nil || e.Cost.WorkUnits == 0 {
			continue
		}
		c := e.Cost
		lt.n++
		for j, wu := range c.LayerWork {
			if j <= maxLayer {
				lt.layer[j] += float64(wu)
			}
		}
		lt.units += float64(c.WorkUnits)
		lt.expanded += float64(c.Expanded)
		lt.frontier += float64(c.FrontierPeak)
		if len(c.ShardWork) > 0 {
			var sum, top float64
			for _, w := range c.ShardWork {
				sum += float64(w)
				top = max(top, float64(w))
			}
			lt.imbalance += ratio(top, sum/float64(len(c.ShardWork)))
			lt.sharded++
		}
	}
	return lt, nil
}

// scrapeMetrics fetches and parses the server's /metrics.
func scrapeMetrics(c *conn) (scrape, error) {
	body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(body))
}

// buildPhaseMS sums a build phase's gauge over every layer.
func buildPhaseMS(sc scrape, phase string) float64 {
	return 1000 * sc.sum("bigindex_build_phase_seconds", "phase", phase)
}

// layerName formats a per-index-layer metric name.
func layerName(prefix string, j int) string { return prefix + ".L" + strconv.Itoa(j) }
