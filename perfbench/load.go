package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bigindex/internal/graph"
)

// conns is how many connections drive the server: the client and the
// server share one process, so more would only contend for the same
// cores.
var conns = min(2, runtime.NumCPU())

// opRecord is one timed operation. Times are offsets from the start of
// its phase.
type opRecord struct {
	write           bool
	key             int
	due, start, end time.Duration
}

// latency is the time from when the operation was due to its answer.
func (o opRecord) latency() time.Duration { return o.end - o.due }

// failures counts failed operations by kind and keeps the first few
// messages for the report.
type failures struct {
	mu        sync.Mutex
	byKind    map[string]int
	first     []string
	mismatch  int
	attempted int
}

func (f *failures) attempt() {
	f.mu.Lock()
	f.attempted++
	f.mu.Unlock()
}

func (f *failures) add(kind, msg string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.byKind == nil {
		f.byKind = map[string]int{}
	}
	f.byKind[kind]++
	if kind == "mismatch" {
		f.mismatch++
	}
	if len(f.first) < 5 {
		f.first = append(f.first, kind+": "+msg)
	}
}

func (f *failures) total() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.byKind {
		n += c
	}
	return n
}

// runner drives one instance with one workload's traffic and checks
// every answer against the reference digests.
type runner struct {
	w      workload
	in     *instance
	pool   []poolKey
	paths  []string // per pool key, untraced
	tpaths []string // per pool key, &trace=1
	// refs[s][key] is the reference digest of a key in graph state s: 0
	// is the served graph, 1+i the graph with write set i added.
	// Read-only workloads have only state 0.
	refs   [][]uint64
	bodies [][2][]byte // per write set: the add and the remove batch

	// begun and acked count the write batches sent and acknowledged.
	// After n acknowledged batches the graph is in state stateAfter(n);
	// a read sent when acked was a and answered when begun was b may
	// see any state from stateAfter(a) to stateAfter(b), no other.
	begun, acked atomic.Int64

	wmu  sync.Mutex      // serializes writes
	acks []time.Time     // acknowledgement times, for post-swap reads
	wlog []*writeOutcome // per acknowledged batch

	fails failures
	// onRead, when set, sees every successful read (the traced run's
	// per-layer accounting).
	onRead func(rec opRecord, rtt time.Duration, rep *queryReply)
}

type writeOutcome struct {
	path     string
	affected float64
	server   time.Duration
}

func newRunner(w workload, in *instance, pool []poolKey) *runner {
	r := &runner{w: w, in: in, pool: pool}
	for _, k := range pool {
		r.paths = append(r.paths, k.path(w, ""))
		r.tpaths = append(r.tpaths, k.path(w, "&trace=1"))
	}
	return r
}

// writeSets is how many edge sets the write stream rotates through, so
// a run's write cost is an average over several seed-chosen sets rather
// than one set's luck. Writes carry most of read-write's CPU per read;
// with four sets that figure moved by a quarter between seeds.
const writeSets = 8

// writeEdges picks the write stream's edges: writeSets sets of four
// seed-chosen vertex pairs with no edge between them, all distinct.
// Batch 2i adds set i mod writeSets and batch 2i+1 removes it again, so
// the graph only ever differs from the served one by one set.
func writeEdges(g *graph.Graph, seed int64) [][][2]uint32 {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	seen := map[[2]uint32]bool{}
	sets := make([][][2]uint32, writeSets)
	for i := range sets {
		for len(sets[i]) < 4 {
			u, v := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
			e := [2]uint32{uint32(u), uint32(v)}
			if u == v || g.HasEdge(u, v) || seen[e] {
				continue
			}
			seen[e] = true
			sets[i] = append(sets[i], e)
		}
	}
	return sets
}

func (r *runner) setWriteEdges(sets [][][2]uint32) error {
	type edge struct {
		From uint32 `json:"from"`
		To   uint32 `json:"to"`
	}
	r.bodies = make([][2][]byte, len(sets))
	for i, set := range sets {
		es := make([]edge, len(set))
		for j, e := range set {
			es[j] = edge{e[0], e[1]}
		}
		var err error
		if r.bodies[i][0], err = json.Marshal(map[string]any{"add_edges": es}); err != nil {
			return err
		}
		if r.bodies[i][1], err = json.Marshal(map[string]any{"remove_edges": es}); err != nil {
			return err
		}
	}
	return nil
}

// references records every pool key's digest from the server's
// sequential, uncached path, in each graph state the workload visits.
func (r *runner) references() error {
	c := newConn(r.in.base)
	defer c.close()
	r.refs = make([][]uint64, 1+len(r.bodies))
	for s := range r.refs {
		if s > 0 {
			if _, err := r.write(c); err != nil {
				return fmt.Errorf("reference write: %w", err)
			}
		}
		r.refs[s] = make([]uint64, len(r.pool))
		layers := make([]int, len(r.pool))
		if err := r.digests(r.refs[s], layers); err != nil {
			return err
		}
		if s == 0 && r.w.layer0 {
			r.keep(func(i int) bool { return layers[i] == 0 })
			if len(r.pool) == 0 {
				return fmt.Errorf("%s: no pool key is evaluated at layer 0", r.w.name)
			}
		}
		if s > 0 {
			if _, err := r.write(c); err != nil {
				return fmt.Errorf("reference write: %w", err)
			}
		}
	}
	return nil
}

// digests fills out[key] with each pool key's uncached sequential
// answer digest, and layers[key] with the layer that answered it,
// spread over the connections.
func (r *runner) digests(out []uint64, layers []int) error {
	var next atomic.Int64
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newConn(r.in.base)
			defer c.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(r.pool) {
					return
				}
				path := r.pool[i].path(r.w, "&shards=0")
				if !r.w.nocache {
					path += "&nocache=1"
				}
				rep, err := c.query(path)
				if err == nil && rep.Degraded {
					err = errDegraded
				}
				if err != nil {
					errs[w] = fmt.Errorf("reference %s: %w", path, err)
					return
				}
				out[i] = rep.digest()
				layers[i] = rep.Layer
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// keep drops the pool keys, and their state-0 references, that fail
// keep. It runs before any other state's references are taken.
func (r *runner) keep(keep func(i int) bool) {
	var pool []poolKey
	var paths, tpaths []string
	var refs []uint64
	for i := range r.pool {
		if keep(i) {
			pool = append(pool, r.pool[i])
			paths = append(paths, r.paths[i])
			tpaths = append(tpaths, r.tpaths[i])
			refs = append(refs, r.refs[0][i])
		}
	}
	r.pool, r.paths, r.tpaths, r.refs[0] = pool, paths, tpaths, refs
}

// stateAfter is the graph state after n acknowledged write batches:
// batch 2i adds write set i mod len(bodies), batch 2i+1 removes it.
func (r *runner) stateAfter(n int64) int {
	if n%2 == 0 {
		return 0
	}
	return 1 + int(n/2)%len(r.bodies)
}

// check compares one answer with the references of the graph states it
// may see: those after acked to begun batches (see runner.begun).
func (r *runner) check(key int, rep *queryReply, acked, begun int64) error {
	if rep.Degraded {
		return errDegraded
	}
	d := rep.digest()
	// Past two cycles of the write sets every state is possible.
	begun = min(begun, acked+2*int64(len(r.bodies)))
	for n := acked; n <= begun; n++ {
		if d == r.refs[r.stateAfter(n)][key] {
			return nil
		}
	}
	return fmt.Errorf("%w: %s algo=%s digest %016x, reference %016x (graph state %d after %d writes)",
		errMismatch, r.pool[key].keywords, r.pool[key].algo, d, r.refs[r.stateAfter(acked)][key], r.stateAfter(acked), acked)
}

var (
	errDegraded = errors.New("degraded answer")
	errMismatch = errors.New("answer digest mismatch")
)

// read sends one pool key and checks the answer.
func (r *runner) read(c *conn, key int, traced bool) (*queryReply, error) {
	path := r.paths[key]
	if traced {
		path = r.tpaths[key]
	}
	acked := r.acked.Load()
	rep, err := c.query(path)
	if err != nil {
		return nil, err
	}
	return rep, r.check(key, rep, acked, r.begun.Load())
}

// write sends the next batch of the stream. Batches are serialized so
// that each remove follows its add.
func (r *runner) write(c *conn) (*writeReply, error) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	n := r.acked.Load()
	r.begun.Add(1)
	rep, err := c.mutate(r.bodies[n/2%int64(len(r.bodies))][n%2])
	if err != nil {
		// The batch may or may not have been applied; the failure is
		// counted, and later reads may see either state.
		return nil, err
	}
	r.acked.Add(1)
	r.acks = append(r.acks, time.Now())
	srv, _ := time.ParseDuration(rep.Elapsed)
	r.wlog = append(r.wlog, &writeOutcome{path: rep.Path, affected: rep.AffectedFrac, server: srv})
	return rep, nil
}

// classify records a failed operation.
func (r *runner) classify(op string, err error) {
	var he *httpError
	switch {
	case errors.Is(err, errMismatch):
		r.fails.add("mismatch", err.Error())
	case errors.Is(err, errDegraded):
		r.fails.add("degraded", op)
	case errors.As(err, &he):
		r.fails.add(fmt.Sprintf("http-%d", he.code), op+": "+he.body)
	default:
		r.fails.add("transport", op+": "+err.Error())
	}
}

// do runs one operation on c and fills in its record.
func (r *runner) do(c *conn, rec *opRecord, phase time.Time, traced bool) {
	r.fails.attempt()
	rec.start = time.Since(phase)
	if rec.write {
		_, err := r.write(c)
		rec.end = time.Since(phase)
		if err != nil {
			r.classify("write", err)
		}
		return
	}
	rep, err := r.read(c, rec.key, traced)
	rec.end = time.Since(phase)
	if err != nil {
		r.classify(r.pool[rec.key].algo+" read", err)
		return
	}
	if r.onRead != nil {
		r.onRead(*rec, c.rtt, rep)
	}
}

// schedule lays out an open-loop phase: reads every 1/rate, writes every
// 1/writeRate (offset by half a period), keys drawn from the picker.
func schedule(d time.Duration, rate, writeRate float64, p *picker) []opRecord {
	var ops []opRecord
	for i := 0; ; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if due >= d {
			break
		}
		ops = append(ops, opRecord{key: p.next(), due: due})
	}
	if writeRate > 0 {
		for j := 0; ; j++ {
			due := time.Duration((float64(j) + 0.5) / writeRate * float64(time.Second))
			if due >= d {
				break
			}
			ops = append(ops, opRecord{write: true, due: due})
		}
	}
	slices.SortStableFunc(ops, func(a, b opRecord) int { return cmp.Compare(a.due, b.due) })
	return ops
}

// openLoop runs a schedule on the connections: each operation is sent
// when due (or as soon as a connection frees up, if it is late), and its
// latency is timed from the due time. It returns the phase's start.
func (r *runner) openLoop(ops []opRecord, traced bool) time.Time {
	var next atomic.Int64
	var wg sync.WaitGroup
	phase := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(r.in.base)
			defer c.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				pace(phase, ops[i].due)
				r.do(c, &ops[i], phase, traced)
			}
		}()
	}
	wg.Wait()
	return phase
}

// pace waits until due. The runtime's timers wake an idle process with
// millisecond granularity, which would dominate sub-millisecond
// latencies, so the last two milliseconds are slept in nanosleep(2).
func pace(phase time.Time, due time.Duration) {
	if d := due - time.Since(phase) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	if d := due - time.Since(phase); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// lateness summarizes how far behind schedule the generator sent.
type lateness struct{ p50, p99, last time.Duration }

func scheduleLateness(ops []opRecord) lateness {
	if len(ops) == 0 {
		return lateness{}
	}
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = float64(o.start - o.due)
	}
	last := ops[len(ops)-1]
	return lateness{
		p50:  time.Duration(quantile(xs, 0.5)),
		p99:  time.Duration(quantile(xs, 0.99)),
		last: last.start - last.due,
	}
}

// behind reports an open-loop phase whose generator could not keep to
// its schedule: such a run measures the backlog, not the system, and is
// invalid.
func (l lateness) behind() bool {
	return l.p50 > 50*time.Millisecond || l.last > time.Second
}

// closedWindows is how many equal windows the closed-loop phase is cut
// into; capacity and CPU per read are medians over them.
const closedWindows = 6

// closedResult is the closed-loop phase's capacity measurement.
type closedResult struct {
	reads   int
	elapsed time.Duration
	alloc   uint64
	qps     []float64 // per window
	cpuMS   []float64 // per window: process CPU per completed read
	p50MS   []float64 // per window: median read latency, from sending
}

// closedLoop sends operations back to back on every connection for d.
// Writes, if the workload has them, keep the open-loop mix: one write
// per rate/writeRate reads. At a fixed write rate instead, a slower
// machine would carry more writes per read and read capacity would
// swing with the machine twice over.
func (r *runner) closedLoop(d time.Duration, seed int64) closedResult {
	var wg sync.WaitGroup
	var ops, reads atomic.Int64
	every := int64(0) // every-th operation is a write; 0 = none
	if r.w.writeRate > 0 {
		every = int64(math.Round(r.w.rate/r.w.writeRate)) + 1
	}
	p := newPicker(len(r.pool), r.w, seed)
	stop := make(chan struct{})
	sampled := make(chan closedResult, 1)
	alloc0 := heapAllocs()
	phase := time.Now()
	go func() {
		// Sample reads and CPU at every window boundary.
		var res closedResult
		tk := time.NewTicker(d / closedWindows)
		defer tk.Stop()
		prevT, prevCPU, prevN := phase, processCPU(), int64(0)
		for {
			select {
			case <-stop:
				sampled <- res
				return
			case now := <-tk.C:
				cpu, n := processCPU(), reads.Load()
				if n > prevN {
					res.qps = append(res.qps, float64(n-prevN)/now.Sub(prevT).Seconds())
					res.cpuMS = append(res.cpuMS, ms(cpu-prevCPU)/float64(n-prevN))
				}
				prevT, prevCPU, prevN = now, cpu, n
			}
		}
	}()
	done := make([][]opRecord, conns) // per connection: completed reads
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(r.in.base)
			defer c.close()
			for time.Since(phase) < d {
				rec := opRecord{due: time.Since(phase)}
				if n := ops.Add(1); every > 0 && n%every == 0 {
					rec.write = true
				} else {
					rec.key = p.next()
				}
				r.do(c, &rec, phase, false)
				if !rec.write {
					reads.Add(1)
					done[w] = append(done[w], rec)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	res := <-sampled
	lat := make([][]float64, closedWindows)
	for _, recs := range done {
		for _, o := range recs {
			if i := int(o.end * closedWindows / d); i < closedWindows {
				lat[i] = append(lat[i], ms(o.latency()))
			}
		}
	}
	for _, xs := range lat {
		if len(xs) > 0 {
			res.p50MS = append(res.p50MS, quantile(xs, 0.5))
		}
	}
	res.elapsed = time.Since(phase)
	res.alloc = heapAllocs() - alloc0
	res.reads = int(reads.Load())
	return res
}

// processCPU is the process's user+system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readMetrics reads runtime/metrics samples by name.
func readMetrics(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(names))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// heapAllocs is the cumulative bytes allocated on the heap.
func heapAllocs() uint64 { return uint64(readMetrics("/gc/heap/allocs:bytes")[0]) }

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	return readMetrics("/gc/heap/live:bytes")[0]
}

// finalCheck runs after the writes stop: it returns the graph to its
// served state, then requires every pool key's cached answer (stored
// and then hit) to equal its uncached answer on the final index and the
// reference.
func (r *runner) finalCheck() error {
	c := newConn(r.in.base)
	defer c.close()
	if r.acked.Load()%2 == 1 {
		r.fails.attempt()
		if _, err := r.write(c); err != nil {
			r.classify("write", err)
			return fmt.Errorf("final write: %w", err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for i, k := range r.pool {
			cached, err := c.query(k.path(r.w, ""))
			if err != nil {
				return fmt.Errorf("final check %s: %w", k.path(r.w, ""), err)
			}
			if pass == 0 {
				continue
			}
			fresh, err := c.query(k.path(r.w, "&nocache=1"))
			if err != nil {
				return fmt.Errorf("final check %s: %w", k.path(r.w, "&nocache=1"), err)
			}
			r.fails.attempt()
			if !cached.Cached || cached.digest() != fresh.digest() || fresh.digest() != r.refs[0][i] {
				r.fails.add("mismatch", fmt.Sprintf("final state: %s algo=%s cached=%v", k.keywords, k.algo, cached.Cached))
			}
		}
	}
	return nil
}
