package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	if !supports(1000, 0.99) || supports(999, 0.99) {
		t.Fatal("p99 needs exactly 1000 samples (10 beyond it)")
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {200, 0.95}, {100, 0.9}, {20, 0.5}, {19, 0}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	root := span{Name: "/query", StartUS: 0, DurUS: 100, Children: []span{
		{Name: "Cache", StartUS: 10, DurUS: 20},  // 10..30
		{Name: "Select", StartUS: 20, DurUS: 30}, // 20..50, overlaps Cache
		{Name: "Late", StartUS: 90, DurUS: 30},   // 90..120, clipped to 100
	}}
	if got := root.selfUS(); got != 50 {
		t.Fatalf("self time = %d µs, want 50 (100 minus the union 10..50 and 90..100)", got)
	}
	if got := (span{DurUS: 7}).selfUS(); got != 7 {
		t.Fatalf("leaf self time = %d, want 7", got)
	}
	if j, ok := specLayer("Spec/L3"); !ok || j != 3 {
		t.Fatalf("specLayer(Spec/L3) = %d, %v", j, ok)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP x y
bigindex_qcache_evictions_total{reason="epoch"} 3
bigindex_qcache_evictions_total{reason="lru"} 4
bigindex_query_seconds_bucket{algo="a,b",mode="eval",le="0.1"} 2 # {trace_id="ab"} 0.05 1
bigindex_qcache_hits_total 9
`
	sc, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.sum("bigindex_qcache_evictions_total"); got != 7 {
		t.Errorf("all evictions = %v, want 7", got)
	}
	if got := sc.sum("bigindex_qcache_evictions_total", "reason", "epoch"); got != 3 {
		t.Errorf("epoch evictions = %v, want 3", got)
	}
	if got := sc.sum("bigindex_query_seconds_bucket", "algo", "a,b"); got != 2 {
		t.Errorf("bucket with exemplar = %v, want 2", got)
	}
	if got := sc.sum("bigindex_qcache_hits_total"); got != 9 {
		t.Errorf("hits = %v, want 9", got)
	}
}

// demoWorkload shrinks a workload to the demo preset for a short pass.
func demoWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.dataset = "demo"
	w.sets = 12
	w.sizes = []int{2, 3}
	w.rate = 600
	if w.fleet {
		w.rate = 80
	}
	return w
}

// shortSeconds is a run of a few hundred open-loop reads.
func shortSeconds(w workload) float64 { return 400 / w.rate }

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	var declared, defined []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !slices.Equal(declared, defined) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark defines %v", declared, defined)
	}
	slices.Sort(endToEnd)
	slices.Sort(perLayer)
	return endToEnd, perLayer
}

// TestShortPass runs every workload once, untraced and traced, on the
// demo preset, and requires exactly the metrics BENCHMARK.json names.
func TestShortPass(t *testing.T) {
	if testing.Short() {
		t.Skip("short pass of every workload")
	}
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w := demoWorkload(t, w.name)
			cfg := config{w: w, seed: 3, seconds: shortSeconds(w), trace: trace, dir: t.TempDir()}
			res, err := benchmark(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.out.Correct || res.out.Failed != 0 || res.out.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d (%v)", w.name, trace,
					res.out.Correct, res.out.Failed, res.out.Attempted, res.meta["failures"])
			}
			var got []string
			for name, m := range res.out.Metrics {
				got = append(got, name)
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", w.name, name)
				}
			}
			slices.Sort(got)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.name, trace, got, want)
			}
			for _, name := range endToEnd {
				if m, ok := res.out.Metrics[name]; ok && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, m.Value)
				}
			}
		}
	}
}

// TestDigestCatchesWrongAnswer serves reads through a proxy that drops
// the last match of every answer with more than one, and requires the
// check to fail the run.
func TestDigestCatchesWrongAnswer(t *testing.T) {
	w := demoWorkload(t, "cold-search")
	ds, err := datasetByName(w.dataset)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buildPool(ds, w, 5)
	if err != nil {
		t.Fatal(err)
	}
	in, err := setup(w, ds, pool[:len(w.algos)], setupOptions{dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	r := newRunner(w, in, pool)
	if err := r.references(); err != nil {
		t.Fatal(err)
	}

	proxy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rec := httptest.NewRecorder()
		in.srv.ServeHTTP(rec, req)
		body := rec.Body.Bytes()
		var resp map[string]json.RawMessage
		if json.Unmarshal(body, &resp) == nil {
			var ms []json.RawMessage
			if json.Unmarshal(resp["matches"], &ms) == nil && len(ms) > 1 {
				resp["matches"], _ = json.Marshal(ms[:len(ms)-1])
				body, _ = json.Marshal(resp)
			}
		}
		rw.WriteHeader(rec.Code)
		rw.Write(body)
	}))
	defer proxy.Close()
	in.base = proxy.URL

	ops := schedule(500*time.Millisecond, 200, 0, newPicker(len(pool), w, 1))
	r.openLoop(ops, false)
	if r.fails.mismatch == 0 {
		t.Fatalf("no mismatch reported for %d reads through a proxy that corrupts answers", len(ops))
	}
	var log bytes.Buffer
	for _, f := range r.fails.first {
		log.WriteString(f + "\n")
	}
	if !strings.Contains(log.String(), "answer digest mismatch") {
		t.Fatalf("failures do not name the mismatch:\n%s", log.String())
	}
}

// TestStaleStateCaught applies a write set behind the runner's back, so
// the server answers from a graph state no read may see, and requires
// the check to fail the reads whose answer that state changes.
func TestStaleStateCaught(t *testing.T) {
	w := demoWorkload(t, "read-write")
	ds, err := datasetByName(w.dataset)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buildPool(ds, w, 5)
	if err != nil {
		t.Fatal(err)
	}
	in, err := setup(w, ds, pool[:len(w.algos)], setupOptions{dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	r := newRunner(w, in, pool)
	if err := r.setWriteEdges(writeEdges(ds.Graph, 5)); err != nil {
		t.Fatal(err)
	}
	if err := r.references(); err != nil {
		t.Fatal(err)
	}
	set, changed := -1, 0
	for i := range r.bodies {
		changed = 0
		for k := range pool {
			if r.refs[1+i][k] != r.refs[0][k] {
				changed++
			}
		}
		if changed > 0 {
			set = i
			break
		}
	}
	if set < 0 {
		t.Fatal("no write set changes any answer; the test needs one that does")
	}
	c := newConn(in.base)
	defer c.close()
	if _, err := c.mutate(r.bodies[set][0]); err != nil {
		t.Fatal(err)
	}

	w.nocache = true // every read evaluates on the changed graph
	r.w = w
	for i, k := range pool {
		r.paths[i] = k.path(w, "")
	}
	ops := schedule(time.Second, float64(len(pool)), 0, newPicker(len(pool), w, 1))
	r.openLoop(ops, false)
	if r.fails.mismatch != changed {
		t.Fatalf("%d mismatches over one pass of the pool, want %d (the keys write set %d changes)",
			r.fails.mismatch, changed, set)
	}
}
