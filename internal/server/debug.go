package server

// Debug endpoints for the in-process flight recorder. They are off by
// default (Options.Debug.Endpoints) because they expose query text and
// internal structure; enable them on trusted/loopback listeners only.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bigindex/internal/obs"
	"bigindex/internal/shardrpc"
)

// traceSummary is the list-view rendering of a retained trace: everything
// in TraceRecord except the span tree, which only /debug/traces/{id}
// returns (a full ring can hold hundreds of deep trees).
type traceSummary struct {
	ID      string    `json:"id"`
	Query   string    `json:"query,omitempty"`
	Algo    string    `json:"algo,omitempty"`
	Outcome string    `json:"outcome"`
	Keep    string    `json:"keep"`
	Start   time.Time `json:"start"`
	DurUS   int64     `json:"dur_us"`
	// Cost is the query's resource ledger — small enough (a few counters)
	// to carry in the list view, unlike the span tree.
	Cost *obs.LedgerSnapshot `json:"cost,omitempty"`
}

// handleDebugTraces lists retained traces, most recent first.
// Query params: algo (exact), outcome (exact: ok|degraded|error|cancelled|
// shed), min (Go duration, e.g. 50ms), since (Go duration: only traces
// started within the last so-much), limit (default 50).
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	f := obs.TraceFilter{
		Algo:    r.URL.Query().Get("algo"),
		Outcome: r.URL.Query().Get("outcome"),
	}
	if m := r.URL.Query().Get("min"); m != "" {
		d, err := time.ParseDuration(m)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad min duration %q: %w", m, err))
			return
		}
		f.MinDur = d
	}
	if sv := r.URL.Query().Get("since"); sv != "" {
		d, err := time.ParseDuration(sv)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad since duration %q (try 5m, 1h)", sv))
			return
		}
		f.Since = time.Now().Add(-d)
	}
	if l := r.URL.Query().Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", l))
			return
		}
		f.Limit = n
	}
	recs := s.recorder.Traces(f)
	out := struct {
		Retained int            `json:"retained"`
		Traces   []traceSummary `json:"traces"`
	}{Retained: s.recorder.Len(), Traces: make([]traceSummary, 0, len(recs))}
	for _, rec := range recs {
		out.Traces = append(out.Traces, traceSummary{
			ID: rec.ID, Query: rec.Query, Algo: rec.Algo, Outcome: rec.Outcome,
			Keep: rec.Keep, Start: rec.Start, DurUS: rec.DurUS, Cost: rec.Cost,
		})
	}
	writeJSON(w, out)
}

// handleDebugTraceByID returns one retained trace with its full span tree,
// per-phase timings, and the paper-phase attrs (layer selection, Prop 4.1
// filtering, Defs 4.2/4.3 check counts) set by eval and the algorithms.
func (s *Server) handleDebugTraceByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	if id == "" || strings.Contains(id, "/") {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad trace id %q", id))
		return
	}
	rec, ok := s.recorder.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("trace %q not retained (evicted or never kept)", id))
		return
	}
	writeJSON(w, rec)
}

// handleDebugActive lists in-flight queries: elapsed time and the current
// span path (e.g. "query>Eval>Specialize"), longest-running first. Queries
// parked in the shed gate appear here too — the gate registers with the
// live registry before acquiring a slot.
func (s *Server) handleDebugActive(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	act := s.recorder.Active()
	writeJSON(w, struct {
		Count  int               `json:"count"`
		Active []obs.ActiveQuery `json:"active"`
	}{len(act), act})
}

// handleDebugFleet reports the shard fleet as the coordinator sees it:
// one row per configured peer with its breaker health, advertised
// identity (digest / blocks / block size), and a live resource and
// counter snapshot from inside the peer process. 404 when the server has no
// shard client (single-process deployments have no fleet to report).
func (s *Server) handleDebugFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	c := s.opt.ShardClient
	if c == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no shard fleet configured (-shard-peers)"))
		return
	}
	peers := c.FleetSnapshot(r.Context())
	floor := c.CoverageFloor()
	writeJSON(w, struct {
		Peers         []shardrpc.PeerFleetInfo `json:"peers"`
		CoverageFloor float64                  `json:"coverage_floor"`
	}{peers, floor})
}

// debugLayer is one row of /debug/index: the per-layer shape of the
// BiG-index plus the generalization quality measures of Sec. 3 — the
// compression ratio |Gⁱ|/|G⁰| and the label distortion of Cⁱ against the
// layer it generalizes.
type debugLayer struct {
	Layer    int     `json:"layer"`
	Vertices int     `json:"vertices"`
	Edges    int     `json:"edges"`
	Size     int     `json:"size"`
	Ratio    float64 `json:"compression_ratio"`
	// ConfigRules is |Cⁱ|, the number of label generalization rules
	// (0 at layer 0, which has no config).
	ConfigRules int `json:"config_rules,omitempty"`
	// BasicDistortion averages per-label distortion uniformly (Eq. of
	// Sec. 3); Distortion weights it by label support in Gⁱ⁻¹.
	BasicDistortion float64 `json:"basic_distortion,omitempty"`
	Distortion      float64 `json:"distortion,omitempty"`
}

// handleDebugIndex reports the served index's per-layer statistics,
// epoch, and data-graph digest — enough to correlate a trace's chosen
// layer with the index it ran against.
func (s *Server) handleDebugIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	st := s.st()
	idx := st.idx
	stats := idx.Stats()
	layers := make([]debugLayer, 0, len(stats.Layers))
	for _, ls := range stats.Layers {
		dl := debugLayer{
			Layer: ls.Layer, Vertices: ls.Vertices, Edges: ls.Edges,
			Size: ls.Size, Ratio: ls.Ratio, ConfigRules: ls.ConfigSize,
		}
		if c := idx.Layer(ls.Layer).Config; c != nil {
			dl.BasicDistortion = c.BasicDistortion()
			dl.Distortion = c.Distortion(idx.Layer(ls.Layer - 1).Graph)
		}
		layers = append(layers, dl)
	}
	// The partition block reports the sharding layout of the data graph:
	// block count, edge cut, and the min/max block sizes whose spread is
	// the skew a scatter-gather round is exposed to (the slowest block
	// bounds the round). Unlike /stats, this endpoint builds the plan on
	// demand — /debug is opt-in and the numbers should always be there.
	plan := st.plans.For(idx.Data())
	minB, maxB := plan.Partitioning().BlockSizes()
	type partitionJSON struct {
		Blocks     int `json:"blocks"`
		EdgeCut    int `json:"edge_cut"`
		TargetSize int `json:"target_block_size"`
		MinBlock   int `json:"min_block"`
		MaxBlock   int `json:"max_block"`
	}
	writeJSON(w, struct {
		Layers    []debugLayer  `json:"layers"`
		TotalSize int           `json:"total_size"`
		Epoch     uint64        `json:"epoch"`
		Digest    string        `json:"digest"`
		Partition partitionJSON `json:"partition"`
	}{
		Layers:    layers,
		TotalSize: idx.TotalSize(),
		Epoch:     idx.Epoch(),
		Digest:    strconv.FormatUint(idx.Data().Digest(), 16),
		Partition: partitionJSON{
			Blocks:     plan.NumBlocks(),
			EdgeCut:    plan.EdgeCut(),
			TargetSize: s.opt.BlockSize,
			MinBlock:   minB,
			MaxBlock:   maxB,
		},
	})
}
