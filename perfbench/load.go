package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"
)

// Wire forms of the responses the benchmark checks. Only the fields the
// checks and metrics read are decoded.
type matchResp struct {
	A         string  `json:"a"`
	B         string  `json:"b"`
	Threshold float64 `json:"threshold"`
	Cached    bool    `json:"cached"`
	Pairs     []struct {
		PathA string  `json:"pathA"`
		PathB string  `json:"pathB"`
		Score float64 `json:"score"`
	} `json:"pairs"`
}

type corpusStats struct {
	Candidates  int   `json:"candidates"`
	EngineRuns  int   `json:"engineRuns"`
	EarlyExits  int   `json:"earlyExits"`
	Reused      int   `json:"reused"`
	CacheHits   int   `json:"cacheHits"`
	BlockMillis int64 `json:"blockMillis"`
	ScoreMillis int64 `json:"scoreMillis"`
}

// add sums another query's stats into s.
func (s *corpusStats) add(o corpusStats) {
	s.Candidates += o.Candidates
	s.EngineRuns += o.EngineRuns
	s.EarlyExits += o.EarlyExits
	s.Reused += o.Reused
	s.CacheHits += o.CacheHits
	s.BlockMillis += o.BlockMillis
	s.ScoreMillis += o.ScoreMillis
}

type corpusResp struct {
	Query   string `json:"query"`
	Matches []struct {
		Schema string  `json:"schema"`
		Score  float64 `json:"score"`
	} `json:"matches"`
	Stats corpusStats `json:"stats"`
}

type searchHit struct {
	Schema string  `json:"schema"`
	Score  float64 `json:"score"`
}

type putResp struct {
	Schema  string `json:"schema"`
	Changed bool   `json:"changed"`
	Version int    `json:"version"`
}

// outcome is what one client observed over a run.
type outcome struct {
	lat       map[string][]float64 // ms per kind (match split cold/warm)
	attempted int
	failed    int
	errs      []string

	f1                  []float64 // casestudy: per match request with planted truth
	precHits, precTotal int       // corpus hits inside the query's planted domain

	corpus      corpusStats // summed response stats
	bulkSchemas int
	bulkSeconds float64
	sentBytes   int // request bytes (URL and body), the "user bytes" the WAL is compared with

	// workload properties
	matchKeys, matchRepeats   int
	corpusQueries, corpusReps int
	corpusHead                int
	firstCandidates           int // candidates of first-time corpus queries
	schemata, pairs, keys     map[string]bool

	start, end time.Time
}

func newOutcome() *outcome {
	return &outcome{lat: make(map[string][]float64), schemata: make(map[string]bool),
		pairs: make(map[string]bool), keys: make(map[string]bool)}
}

// record adds one checked response's latency.
func (o *outcome) record(kind string, el time.Duration) {
	o.lat[kind] = append(o.lat[kind], ms(el))
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// names tracks the schemata registered in the daemon, shared by the
// clients of one run (the writer adds bulk-ingested names as it sends
// them).
type names struct {
	mu sync.RWMutex
	m  map[string]bool
}

func (n *names) has(s string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.m[s]
}

func (n *names) add(ss []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, s := range ss {
		n.m[s] = true
	}
}

// runLoad drives the daemon with one closed-loop goroutine per client
// until the deadline and returns each client's outcome.
func runLoad(d *daemon, w *workload, seconds int) []*outcome {
	reg := &names{m: make(map[string]bool, len(w.fix.schemas))}
	for _, s := range w.fix.schemas {
		reg.m[s.Name] = true
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	outs := make([]*outcome, len(w.clients))
	var wg sync.WaitGroup
	for c := range w.clients {
		outs[c] = newOutcome()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := outs[c]
			o.start = time.Now()
			seen := make(map[string]bool)
			for _, r := range w.clients[c] {
				if time.Now().After(deadline) {
					break
				}
				o.attempted++
				send(d, w, reg, r, o, seen)
			}
			o.end = time.Now()
		}(c)
	}
	wg.Wait()
	return outs
}

// send issues one request, times it and checks the response.
func send(d *daemon, w *workload, reg *names, r request, o *outcome, seen map[string]bool) {
	switch r.kind {
	case kindMatch:
		body, _ := json.Marshal(map[string]any{"a": r.a, "b": r.b, "threshold": r.threshold})
		o.sentBytes += len(body) + len("/v1/match")
		code, resp, el, err := d.do("POST", "/v1/match", "application/json", body)
		if !okStatus(o, "match", code, err) {
			return
		}
		var m matchResp
		if err := json.Unmarshal(resp, &m); err != nil {
			o.fail("match: undecodable body: %v", err)
			return
		}
		if err := checkMatch(w.fix, r, &m); err != nil {
			o.fail("match %s~%s: %v", r.a, r.b, err)
			return
		}
		kind := kindMatchCold
		if m.Cached {
			kind = kindMatchWarm
		}
		o.record(kind, el)
		key := fmt.Sprintf("%s\x00%s\x00%.4f", r.a, r.b, r.threshold)
		o.matchKeys++
		if seen[key] {
			o.matchRepeats++
		}
		seen[key] = true
		o.keys[key] = true
		o.pairs[pairKey(r.a, r.b)] = true
		o.schemata[r.a], o.schemata[r.b] = true, true
		if truth, ok := w.fix.truth[pairKey(r.a, r.b)]; ok {
			o.f1 = append(o.f1, f1(truth, &m))
		}
	case kindCorpus:
		path := "/v1/corpus/topk?schema=" + r.query
		o.sentBytes += len(path)
		code, resp, el, err := d.do("GET", path, "", nil)
		if !okStatus(o, "corpus", code, err) {
			return
		}
		var c corpusResp
		if err := json.Unmarshal(resp, &c); err != nil {
			o.fail("corpus: undecodable body: %v", err)
			return
		}
		if c.Query != r.query || len(c.Matches) == 0 || len(c.Matches) > 5 {
			o.fail("corpus %s: query %q with %d matches", r.query, c.Query, len(c.Matches))
			return
		}
		label, labelled := w.fix.labels[r.query]
		for _, m := range c.Matches {
			if !reg.has(m.Schema) || m.Schema == r.query {
				o.fail("corpus %s: hit %q is not another registered schema", r.query, m.Schema)
				return
			}
			// Bulk-ingested schemata come from another generator call,
			// whose domains are not the corpus domains: only fixture
			// hits count toward precision.
			if l, ok := w.fix.labels[m.Schema]; ok && labelled {
				o.precTotal++
				if l == label {
					o.precHits++
				}
			}
		}
		o.record(kindCorpus, el)
		o.corpusQueries++
		if r.rank < zipfHead {
			o.corpusHead++
		}
		if seen["q\x00"+r.query] {
			o.corpusReps++
		} else {
			o.firstCandidates += c.Stats.Candidates
		}
		seen["q\x00"+r.query] = true
		o.schemata[r.query] = true
		o.corpus.add(c.Stats)
	case kindSearch:
		path := "/v1/search?q=" + r.q
		o.sentBytes += len(path)
		code, resp, el, err := d.do("GET", path, "", nil)
		if !okStatus(o, "search", code, err) {
			return
		}
		var hits []searchHit
		if err := json.Unmarshal(resp, &hits); err != nil {
			o.fail("search: undecodable body: %v", err)
			return
		}
		if len(hits) > 10 {
			o.fail("search %s: %d hits, want at most 10", r.q, len(hits))
			return
		}
		for _, h := range hits {
			if !reg.has(h.Schema) {
				o.fail("search %s: hit %q is not registered", r.q, h.Schema)
				return
			}
		}
		o.record(kindSearch, el)
	case kindBulk:
		// The reader may see a batch's schemata as soon as the daemon
		// admits them, before this response has been read to the end.
		reg.add(r.names)
		o.sentBytes += len(r.body) + len("/v1/schemas/bulk")
		code, resp, el, err := d.do("POST", "/v1/schemas/bulk", "application/x-ndjson", r.body)
		if !okStatus(o, "bulk", code, err) {
			return
		}
		if err := checkBulkAcks(resp, r.n); err != nil {
			o.fail("%v", err)
			return
		}
		o.record(kindBulk, el)
		o.bulkSchemas += r.n
		o.bulkSeconds += el.Seconds()
	case kindPut:
		path := "/v1/schemas/" + r.name
		o.sentBytes += len(r.body) + len(path)
		code, resp, el, err := d.do("PUT", path, "application/json", r.body)
		if !okStatus(o, "put", code, err) {
			return
		}
		var p putResp
		if err := json.Unmarshal(resp, &p); err != nil {
			o.fail("put: undecodable body: %v", err)
			return
		}
		if p.Schema != r.name || !p.Changed || p.Version != r.version {
			o.fail("put %s: changed=%v version %d, want a bump to %d", r.name, p.Changed, p.Version, r.version)
			return
		}
		o.record(kindPut, el)
	}
}

func okStatus(o *outcome, what string, code int, err error) bool {
	if err != nil {
		o.fail("%s: %v", what, err)
		return false
	}
	if code < 200 || code > 299 {
		o.fail("%s: status %d", what, code)
		return false
	}
	return true
}

// checkMatch verifies a match response against its request: the echoed
// names and threshold, and a one-to-one selection of element paths that
// exist in the two schemata.
func checkMatch(f *fixture, r request, m *matchResp) error {
	if m.A != r.a || m.B != r.b {
		return fmt.Errorf("response names %s~%s", m.A, m.B)
	}
	if r.threshold > 0 && math.Abs(m.Threshold-r.threshold) > 1e-9 {
		return fmt.Errorf("threshold %v, sent %v", m.Threshold, r.threshold)
	}
	sa, sb := f.byName[r.a], f.byName[r.b]
	usedA := make(map[string]bool, len(m.Pairs))
	usedB := make(map[string]bool, len(m.Pairs))
	for _, p := range m.Pairs {
		if sa.ByPath(p.PathA) == nil || sb.ByPath(p.PathB) == nil {
			return fmt.Errorf("pair %s~%s names an element that does not exist", p.PathA, p.PathB)
		}
		if usedA[p.PathA] || usedB[p.PathB] {
			return fmt.Errorf("selection is not one-to-one at %s~%s", p.PathA, p.PathB)
		}
		usedA[p.PathA], usedB[p.PathB] = true, true
		if p.Score <= 0 || p.Score > 1+1e-9 {
			return fmt.Errorf("pair %s~%s score %v outside (0,1]", p.PathA, p.PathB, p.Score)
		}
	}
	return nil
}

// f1 is the F-measure of a returned selection against planted truth.
func f1(truth map[string]bool, m *matchResp) float64 {
	tp := 0
	for _, p := range m.Pairs {
		if truth[pairKey(p.PathA, p.PathB)] {
			tp++
		}
	}
	if tp == 0 {
		return 0
	}
	prec := float64(tp) / float64(len(m.Pairs))
	rec := float64(tp) / float64(len(truth))
	return 2 * prec * rec / (prec + rec)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
