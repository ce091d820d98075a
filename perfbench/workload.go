package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"strings"
	"sync"

	"bigindex/internal/datagen"
	"bigindex/internal/qcache"
)

// workload is one traffic mix. Reads come from a pool of distinct
// (keywords, algorithm) keys; keyword sets are datagen.Queries output
// (semantically related keywords in the paper's Table 4 shapes), so the
// traffic depends only on (dataset, seed).
type workload struct {
	name    string
	dataset string
	algos   []string
	sizes   []int   // keyword counts the pool cycles through
	sets    int     // distinct keyword sets; the pool holds sets × len(algos) keys
	zipf    float64 // > 1: zipf-skewed key choice with this exponent; 0: uniform
	nocache bool    // every read sends &nocache=1
	fleet   bool    // Shards=1 coordinator over two in-process shardrpc servers
	// layer0 keeps only the keys whose reference answer Formula 4
	// evaluates at layer 0, the only layer whose search goes remote.
	layer0 bool
	// rate is the open-loop read rate in requests per second. It is a
	// constant, so it does not drift as the program gets faster, set at
	// 20–46% of the closed-loop capacity measured when the benchmark was
	// defined: at half, queueing swung p50 by 50–70% between runs.
	rate float64
	// writeRate is the open-loop rate of POST /admin/edges batches per
	// second; 0 means a read-only workload.
	writeRate float64
}

// tableFourSizes are the paper's Q1–Q8 keyword counts (Table 4).
var tableFourSizes = []int{2, 2, 3, 3, 3, 4, 5, 6}

// workloads are the benchmark's traffic mixes.
//
// Known gaps, excluded on purpose and kept here so they stay visible:
//
//   - algo=rclique is in no workload. On a 2-vCPU machine with Go 1.24,
//     13 of 13 timed /query?algo=rclique requests on yago-s ran to a 2 s
//     deadline and allocated 180–300 MB each. That is a defect to fix,
//     not traffic to size a benchmark around.
//   - fleet peer loss is not exercised: shard-peer recovery after a
//     restart is broken (retry.Breaker.Allow admits one half-open probe,
//     so the first query after recovery loses most blocks; ROADMAP item
//     0). The fleet workload runs with both peers healthy throughout.
var workloads = []workload{
	{
		// qcache, server and HTTP/JSON do almost all the work.
		name: "hot-cached", dataset: "yago-s",
		algos: []string{"blinks", "bkws", "bidir"}, sizes: tableFourSizes,
		sets: 200, zipf: 1.1, rate: 5500,
	},
	{
		// core and search dominate: every read evaluates.
		name: "cold-search", dataset: "dbpedia-s",
		algos: []string{"blinks", "bkws", "bidir"}, sizes: []int{2, 3, 4, 5, 6},
		sets: 800, nocache: true, rate: 100,
	},
	{
		// shard and shardrpc do most of the work. About half of the
		// keyword sets stay above layer 0 and never leave the
		// coordinator; mixed in, they made the read latency bimodal with
		// the median between the modes, so only layer-0 keys are read.
		name: "fleet", dataset: "yago-s",
		algos: []string{"bkws", "bidir"}, sizes: tableFourSizes,
		sets: 200, nocache: true, fleet: true, layer0: true, rate: 35,
	},
	{
		// hot-cached's pool plus a stationary write stream. Every write
		// bumps the index epoch; on a 2-vCPU machine the cache hit ratio
		// measured 0.001 at 6 writes/s, and zipf reads at 10 writes/s saw
		// one epoch eviction per read, so skew would only add noise:
		// reads cycle the pool uniformly.
		name: "read-write", dataset: "yago-s",
		algos: []string{"blinks", "bkws", "bidir"}, sizes: tableFourSizes,
		sets: 200, rate: 150, writeRate: 6,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// warmSeed seeds the set-up's warm-up keys. They do not depend on
// --seed, so set-up time measures the program, not a run's inputs.
const warmSeed = 1

// warmPool is one key per algorithm for the warm-up queries.
func warmPool(ds *datagen.Dataset, w workload) ([]poolKey, error) {
	w.sets = 1
	return buildPool(ds, w, warmSeed)
}

// poolKey is one distinct read: a canonical keyword set and an algorithm.
type poolKey struct {
	keywords []string // label names, canonical (label-sorted) order
	algo     string
}

// path renders the key as a /query request path with the workload's
// fixed parameters; extra is appended verbatim ("&trace=1", ...).
func (k poolKey) path(w workload, extra string) string {
	var b strings.Builder
	b.WriteString("/query?q=")
	b.WriteString(url.QueryEscape(strings.Join(k.keywords, ",")))
	b.WriteString("&algo=")
	b.WriteString(k.algo)
	b.WriteString("&k=10")
	if w.nocache {
		b.WriteString("&nocache=1")
	}
	b.WriteString(extra)
	return b.String()
}

// buildPool draws w.sets distinct keyword sets from datagen.Queries,
// seeded by seed, and crosses them with the workload's algorithms.
func buildPool(ds *datagen.Dataset, w workload, seed int64) ([]poolKey, error) {
	seen := map[string]bool{}
	var sets [][]string
	rng := rand.New(rand.NewSource(seed))
	for round := 0; len(sets) < w.sets && round < 200; round++ {
		sizes := make([]int, 0, 4*len(w.sizes))
		for len(sizes) < 4*len(w.sizes) {
			sizes = append(sizes, w.sizes...)
		}
		qs := datagen.Queries(ds, datagen.WorkloadOptions{Sizes: sizes, MinCount: 30, Seed: rng.Int63()})
		for _, q := range qs {
			labels := qcache.CanonicalLabels(slices.Clone(q.Keywords))
			if len(labels) != len(q.Keywords) {
				continue
			}
			names := make([]string, len(labels))
			for i, l := range labels {
				names[i] = ds.Graph.Dict().Name(l)
			}
			key := strings.Join(names, "\x00")
			if seen[key] || slices.ContainsFunc(names, func(n string) bool { return strings.Contains(n, ",") }) {
				continue
			}
			seen[key] = true
			sets = append(sets, names)
			if len(sets) == w.sets {
				break
			}
		}
	}
	if len(sets) < w.sets {
		return nil, fmt.Errorf("%s: only %d distinct keyword sets on %s (want %d)", w.name, len(sets), ds.Name, w.sets)
	}
	pool := make([]poolKey, 0, len(sets)*len(w.algos))
	for _, s := range sets {
		for _, a := range w.algos {
			pool = append(pool, poolKey{keywords: s, algo: a})
		}
	}
	return pool, nil
}

// zipfTier is how many keys share one popularity rank in a skewed
// workload. Ranking single keys would let the few hottest keys (at
// s = 1.1 over 600 keys the top ten take half the traffic) set a run's
// mix, so the figures would swing with which keys the seed makes hot.
const zipfTier = 30

// picker draws pool indexes. With w.zipf > 1 it draws zipf-skewed
// popularity tiers of zipfTier keys over a seed-shuffled order, so the
// hot keys differ per seed, and cycles through the keys of a tier.
// Otherwise it walks a seed-shuffled cycle of the pool, so every key is
// read equally often and a run's mix of cheap and expensive queries is
// the pool's own, not a sample of it. It is safe for concurrent use.
type picker struct {
	mu   sync.Mutex
	zipf *rand.Zipf
	perm []int
	n    []int // per tier (one tier when uniform): reads so far
}

func newPicker(n int, w workload, seed int64) *picker {
	rng := rand.New(rand.NewSource(seed))
	p := &picker{perm: rng.Perm(n), n: make([]int, 1)}
	if w.zipf > 1 && n > zipfTier {
		tiers := (n + zipfTier - 1) / zipfTier
		p.zipf = rand.NewZipf(rng, w.zipf, 1, uint64(tiers-1))
		p.n = make([]int, tiers)
	}
	return p
}

func (p *picker) next() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.zipf == nil {
		p.n[0]++
		return p.perm[(p.n[0]-1)%len(p.perm)]
	}
	t := int(p.zipf.Uint64())
	keys := p.perm[t*zipfTier : min((t+1)*zipfTier, len(p.perm))]
	p.n[t]++
	return keys[(p.n[t]-1)%len(keys)]
}
