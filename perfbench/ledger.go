package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Layers of the ledger, named after the repository's packages.
var layers = []string{"service", "schema", "registry", "store", "search", "corpus", "core", "evolve", "repl"}

// span is one timed call into a layer, recorded by the benchmark around
// an exported function. Spans of one request share req; root spans have
// parent -1. Probe spans (kind "probe") time a layer function outside
// any request and stay out of the per-kind tables.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string { return s.Name[:strings.IndexByte(s.Name, '.')] }

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: the corpus pipeline calls back into the registry from
// its scoring workers.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// delay plants a slowdown: each span of the named layer spins this
	// long before it ends (the ledger self-test). A spin, not a sleep:
	// sub-millisecond sleeps overshoot by more than the delay itself.
	delay map[string]time.Duration
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(req, parent int, kind, name string) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Req: req, Kind: kind, Name: name, Start: now})
	return len(r.spans) - 1
}

func (r *recorder) finish(id int) {
	r.mu.Lock()
	name := r.spans[id].Name
	r.mu.Unlock()
	if d := r.delay[name[:strings.IndexByte(name, '.')]]; d > 0 {
		for t0 := time.Now(); time.Since(t0) < d; {
		}
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// run records fn as one span.
func (r *recorder) run(req, parent int, kind, name string, fn func()) {
	id := r.begin(req, parent, kind, name)
	fn()
	r.finish(id)
}

// selfTimes returns each span's duration minus the part of it covered by
// its children (children may overlap when they run on parallel workers).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered := int64(0)
		curLo, curHi := int64(-1), int64(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		out[i] = time.Duration(s.End-s.Start-covered) * time.Nanosecond
	}
	return out
}

// kindTable is one row group of the ledger: for a request kind, the
// median over requests of each layer's summed self time.
type kindTable struct {
	Kind     string             `json:"kind"`
	Requests int                `json:"requests"`
	Sweep    bool               `json:"sweep"` // kind not in the workload's load
	Layers   map[string]float64 `json:"layer_self_ms"`
	Total    float64            `json:"replay_total_ms"`
	E2E      float64            `json:"e2e_p50_ms"`
	Residual float64            `json:"residual_ms"`
}

// buildLedger folds spans into per-kind tables. e2e holds the daemon
// run's client-side p50 per kind; the residual is that p50 minus the
// kind's summed layer self-time medians (NaN where the load had no such
// request).
func buildLedger(spans []span, e2e map[string]float64) []*kindTable {
	self := selfTimes(spans)
	type reqAcc struct {
		kind  string
		total time.Duration
		layer map[string]time.Duration
	}
	reqs := make(map[int]*reqAcc)
	var order []int
	for i, s := range spans {
		if s.Kind == "probe" {
			continue
		}
		a, ok := reqs[s.Req]
		if !ok {
			a = &reqAcc{kind: s.Kind, layer: make(map[string]time.Duration)}
			reqs[s.Req] = a
			order = append(order, s.Req)
		}
		if s.Parent < 0 {
			a.total += s.dur()
		}
		a.layer[s.layer()] += self[i]
	}
	byKind := make(map[string][]*reqAcc)
	var kinds []string
	for _, id := range order {
		a := reqs[id]
		if _, ok := byKind[a.kind]; !ok {
			kinds = append(kinds, a.kind)
		}
		byKind[a.kind] = append(byKind[a.kind], a)
	}
	var out []*kindTable
	for _, k := range kinds {
		rs := byKind[k]
		t := &kindTable{Kind: k, Requests: len(rs), Layers: make(map[string]float64), E2E: math.NaN(), Residual: math.NaN()}
		var totals []float64
		for _, a := range rs {
			totals = append(totals, ms(a.total))
		}
		t.Total = median(totals)
		sum := 0.0
		for _, l := range layers {
			var xs []float64
			seen := false
			for _, a := range rs {
				d, ok := a.layer[l]
				seen = seen || ok
				xs = append(xs, ms(d))
			}
			if seen {
				t.Layers[l] = median(xs)
				sum += t.Layers[l]
			}
		}
		if p50, ok := e2e[k]; ok {
			t.E2E = p50
			t.Residual = p50 - sum
		} else {
			t.Sweep = true
		}
		out = append(out, t)
	}
	return out
}

// printLedger writes the per-kind tables as text.
func printLedger(w io.Writer, tables []*kindTable) {
	fmt.Fprintf(w, "per-layer ledger (median self time per request, ms):\n")
	fmt.Fprintf(w, "  %-15s %5s", "kind", "n")
	for _, l := range layers {
		fmt.Fprintf(w, " %9s", l)
	}
	fmt.Fprintf(w, " %9s %9s %9s\n", "replay", "e2e_p50", "residual")
	for _, t := range tables {
		name := t.Kind
		if t.Sweep {
			name += "*"
		}
		fmt.Fprintf(w, "  %-15s %5d", name, t.Requests)
		for _, l := range layers {
			if v, ok := t.Layers[l]; ok {
				fmt.Fprintf(w, " %9.3f", v)
			} else {
				fmt.Fprintf(w, " %9s", "-")
			}
		}
		fmt.Fprintf(w, " %9.3f %9s %9s\n", t.Total, fmtNaN(t.E2E), fmtNaN(t.Residual))
	}
	fmt.Fprintf(w, "  (* = layer sweep: a kind this workload's load does not send, replayed on its inputs)\n")
}

func fmtNaN(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// ledgerFile is what a traced run writes out at the end: every span and
// the tables derived from them.
type ledgerFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Tables   []*kindTable `json:"tables"`
	Spans    []span       `json:"spans"`
}

// MarshalJSON writes NaN figures as null.
func (t *kindTable) MarshalJSON() ([]byte, error) {
	type plain kindTable
	out := struct {
		*plain
		E2E      *float64 `json:"e2e_p50_ms"`
		Residual *float64 `json:"residual_ms"`
	}{plain: (*plain)(t)}
	if !math.IsNaN(t.E2E) {
		out.E2E = &t.E2E
	}
	if !math.IsNaN(t.Residual) {
		out.Residual = &t.Residual
	}
	return json.Marshal(out)
}
