package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"sync"
	"time"

	"harmony/internal/core"
	"harmony/internal/corpus"
	"harmony/internal/evolve"
	"harmony/internal/registry"
	"harmony/internal/schema"
	"harmony/internal/store"
)

// The replay mirrors harmonyd's configuration at its defaults: the
// harmony preset with sparse scoring, a shared 128-entry profile cache,
// corpus top-5 of 32 blocked candidates at threshold 0.4, bulk batches of
// 256 lines, fsync per commit.
const (
	replayPreset     = "harmony"
	replayThreshold  = 0.4
	replayCandidates = 32
	replayTopK       = 5
	replayBulkBatch  = 256
)

type replayKey struct {
	fa, fb string
	th     float64
}

type replayPair struct {
	PathA string  `json:"pathA"`
	PathB string  `json:"pathB"`
	Score float64 `json:"score"`
}

type replayOutcome struct {
	Pairs              []replayPair `json:"pairs"`
	ReusedVia          string       `json:"reusedVia,omitempty"`
	SuggestedThreshold float64      `json:"suggestedThreshold,omitempty"`
}

// replayer replays generated requests in-process, calling each layer's
// exported functions in the order harmonyd's handlers call them, with a
// benchmark span around every call.
type replayer struct {
	rec  *recorder
	st   *store.Store
	reg  *registry.Registry
	pc   *core.ProfileCache
	eng  *core.Engine
	pipe *corpus.Pipeline

	mu    sync.Mutex
	cache map[replayKey]*replayOutcome

	nextReq int
	// corpusParent is the span the corpus pipeline's cache callbacks
	// nest under (one corpus query runs at a time).
	corpusParent, corpusReq int
	corpusKind              string

	// per-layer figures gathered along the way
	parse       time.Duration
	parsed      int
	admitBatch  []float64
	applyTotal  time.Duration
	appliedOps  int
	compileSeen map[string]bool
}

func newReplayer(dir string, rec *recorder) (*replayer, error) {
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncPerCommit})
	if err != nil {
		return nil, err
	}
	p := &replayer{
		rec:         rec,
		st:          st,
		reg:         st.Registry(),
		pc:          core.NewProfileCache(core.DefaultProfileCacheSize),
		cache:       make(map[replayKey]*replayOutcome),
		compileSeen: make(map[string]bool),
	}
	p.eng = core.Presets()[replayPreset]().WithOptions(core.WithSparse(core.DefaultSparseBudget), core.WithProfileCache(p.pc))
	p.pipe = corpus.NewPipeline(p.reg, replayCorpusCache{p})
	return p, nil
}

func (p *replayer) close() error { return p.st.Close() }

func (p *replayer) newReq() int {
	p.nextReq++
	return p.nextReq
}

// cachePreset is the service's cache identity of the preset under sparse
// scoring.
func cachePreset() string { return fmt.Sprintf("%s+sparse%d", replayPreset, core.DefaultSparseBudget) }

// artifact mirrors the service's persisted match artifact.
func artifact(a, b string, pairs []replayPair) registry.MatchArtifact {
	ma := registry.MatchArtifact{
		SchemaA: a, SchemaB: b, Context: registry.ContextSearch,
		Provenance: registry.Provenance{CreatedBy: "perfbench", Tool: "perfbench"},
	}
	for _, pr := range pairs {
		score := pr.Score
		if score >= 1 {
			score = 0.9999
		}
		ma.Pairs = append(ma.Pairs, registry.AssertedMatch{PathA: pr.PathA, PathB: pr.PathB, Score: score, Status: registry.StatusProposed})
	}
	return ma
}

type replayCorpusCache struct{ p *replayer }

func (c replayCorpusCache) Lookup(key corpus.CacheKey) ([]corpus.Pair, string, bool) {
	c.p.mu.Lock()
	out, ok := c.p.cache[replayKey{key.FingerprintA, key.FingerprintB, key.Threshold}]
	c.p.mu.Unlock()
	if !ok {
		return nil, "", false
	}
	pairs := make([]corpus.Pair, 0, len(out.Pairs))
	for _, pr := range out.Pairs {
		pairs = append(pairs, corpus.Pair{PathA: pr.PathA, PathB: pr.PathB, Score: pr.Score})
	}
	return pairs, out.ReusedVia, true
}

func (c replayCorpusCache) Store(key corpus.CacheKey, queryName string, m *corpus.SchemaMatch) {
	p := c.p
	out := &replayOutcome{ReusedVia: m.Hub}
	for _, pr := range m.Pairs {
		out.Pairs = append(out.Pairs, replayPair{pr.PathA, pr.PathB, pr.Score})
	}
	p.mu.Lock()
	p.cache[replayKey{key.FingerprintA, key.FingerprintB, key.Threshold}] = out
	p.mu.Unlock()
	p.rec.run(p.corpusReq, p.corpusParent, p.corpusKind, "registry.add_match", func() {
		_, _ = p.reg.AddMatch(artifact(queryName, m.Schema, out.Pairs))
	})
}

// bulk replays one NDJSON bulk request: per batch, split lines, parse,
// prepare and admit (one WAL commit), then the ack; the index merge
// check runs once at stream end.
func (p *replayer) bulk(kind string, body []byte) error {
	req := p.newReq()
	root := p.rec.begin(req, -1, kind, "service.handler")
	defer p.rec.finish(root)
	var lines [][]byte
	p.rec.run(req, root, kind, "service.decode", func() {
		for _, ln := range bytes.Split(body, []byte("\n")) {
			if len(bytes.TrimSpace(ln)) > 0 {
				lines = append(lines, ln)
			}
		}
	})
	for lo := 0; lo < len(lines); lo += replayBulkBatch {
		batch := lines[lo:min(lo+replayBulkBatch, len(lines))]
		schemas := make([]*schema.Schema, len(batch))
		var perr error
		t0 := time.Now()
		p.rec.run(req, root, kind, "schema.parse", func() {
			for i, ln := range batch {
				if schemas[i], perr = schema.ParseJSON(ln); perr != nil {
					return
				}
			}
		})
		p.parse += time.Since(t0)
		p.parsed += len(batch)
		if perr != nil {
			return perr
		}
		prepared := make([]*registry.PreparedSchema, len(batch))
		t1 := time.Now()
		p.rec.run(req, root, kind, "registry.prepare", func() {
			for i, s := range schemas {
				if prepared[i], perr = p.reg.PrepareSchemaRaw(s, batch[i], ""); perr != nil {
					return
				}
			}
		})
		if perr != nil {
			return perr
		}
		var added int
		var errs []error
		p.rec.run(req, root, kind, "registry.admit", func() { added, errs = p.reg.AddPrepared(prepared) })
		p.admitBatch = append(p.admitBatch, ms(time.Since(t1)))
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		p.rec.run(req, root, kind, "service.encode", func() {
			_, _ = json.Marshal(map[string]int{"lines": len(batch), "added": added})
		})
	}
	p.rec.run(req, root, kind, "search.flush", p.reg.FlushIndex)
	return nil
}

// match replays POST /v1/match: decode, lookup, cache, then on a miss
// profile, score, select, shape, persist the artifact; encode.
func (p *replayer) match(r request) error {
	req := p.newReq()
	first := len(p.rec.spans)
	kind := kindMatchCold
	root := p.rec.begin(req, -1, kind, "service.handler")
	body, _ := json.Marshal(map[string]any{"a": r.a, "b": r.b, "threshold": r.threshold})
	var in struct {
		A, B      string
		Threshold float64
	}
	p.rec.run(req, root, kind, "service.decode", func() { _ = json.Unmarshal(body, &in) })
	th := in.Threshold
	if th == 0 {
		th = replayThreshold
	}
	var ea, eb *registry.Entry
	var okA, okB bool
	p.rec.run(req, root, kind, "registry.lookup", func() {
		ea, okA = p.reg.Schema(in.A)
		eb, okB = p.reg.Schema(in.B)
	})
	if !okA || !okB {
		p.rec.finish(root)
		return fmt.Errorf("replay match: %s or %s not registered", in.A, in.B)
	}
	key := replayKey{ea.Fingerprint, eb.Fingerprint, th}
	var out *replayOutcome
	var hit bool
	p.rec.run(req, root, kind, "service.cache", func() {
		p.mu.Lock()
		out, hit = p.cache[key]
		p.mu.Unlock()
	})
	if !hit {
		var pa, pb *core.CompiledProfile
		p.rec.run(req, root, kind, "core.profile", func() {
			pa, pb = p.eng.Profile(ea.Schema), p.eng.Profile(eb.Schema)
		})
		var res *core.Result
		p.rec.run(req, root, kind, "core.match", func() { res = p.eng.MatchProfiles(pa, pb) })
		var sel []core.Correspondence
		var sug float64
		p.rec.run(req, root, kind, "core.select", func() {
			sel = core.SelectGreedyOneToOne(res.Matrix, th)
			sug = core.SuggestThreshold(res.Matrix)
		})
		p.rec.run(req, root, kind, "service.shape", func() {
			out = &replayOutcome{SuggestedThreshold: sug, Pairs: make([]replayPair, 0, len(sel))}
			for _, c := range sel {
				out.Pairs = append(out.Pairs, replayPair{res.Src.View(c.Src).El.Path(), res.Dst.View(c.Dst).El.Path(), c.Score})
			}
			res.Release()
			p.mu.Lock()
			p.cache[key] = out
			p.mu.Unlock()
		})
		p.rec.run(req, root, kind, "registry.add_match", func() {
			_, _ = p.reg.AddMatch(artifact(in.A, in.B, out.Pairs))
		})
	}
	p.rec.run(req, root, kind, "service.encode", func() {
		_, _ = json.Marshal(struct {
			A, B      string
			Threshold float64
			Cached    bool
			*replayOutcome
		}{in.A, in.B, th, hit, out})
	})
	p.rec.finish(root)
	if hit {
		p.relabel(first, kindMatchWarm)
	}
	return nil
}

// relabel sets the kind of every span recorded since index first.
func (p *replayer) relabel(first int, kind string) {
	p.rec.mu.Lock()
	defer p.rec.mu.Unlock()
	for i := first; i < len(p.rec.spans); i++ {
		p.rec.spans[i].Kind = kind
	}
}

// corpus replays GET /v1/corpus/topk.
func (p *replayer) corpus(r request) error {
	req := p.newReq()
	kind := kindCorpus
	root := p.rec.begin(req, -1, kind, "service.handler")
	var name string
	p.rec.run(req, root, kind, "service.decode", func() {
		v, _ := url.ParseQuery("schema=" + r.query)
		name = v.Get("schema")
	})
	var e *registry.Entry
	var ok bool
	p.rec.run(req, root, kind, "registry.lookup", func() { e, ok = p.reg.Schema(name) })
	if !ok {
		p.rec.finish(root)
		return fmt.Errorf("replay corpus: %s not registered", name)
	}
	cfg := corpus.Config{Candidates: replayCandidates, TopK: replayTopK, Threshold: replayThreshold,
		Preset: cachePreset(), SparseBudget: core.DefaultSparseBudget}
	var res *corpus.Result
	var err error
	sp := p.rec.begin(req, root, kind, "corpus.topk")
	p.corpusParent, p.corpusReq, p.corpusKind = sp, req, kind
	res, err = p.pipe.TopK(context.Background(), p.eng, e.Schema, cfg)
	p.rec.finish(sp)
	if err != nil {
		p.rec.finish(root)
		return err
	}
	p.rec.run(req, root, kind, "service.encode", func() { _, _ = json.Marshal(res) })
	p.rec.finish(root)
	return nil
}

// search replays GET /v1/search.
func (p *replayer) search(r request) {
	req := p.newReq()
	kind := kindSearch
	root := p.rec.begin(req, -1, kind, "service.handler")
	var q string
	p.rec.run(req, root, kind, "service.decode", func() {
		v, _ := url.ParseQuery("q=" + r.q)
		q = v.Get("q")
	})
	var hits any
	p.rec.run(req, root, kind, "search.query", func() { hits = p.reg.SearchText(q, 10) })
	p.rec.run(req, root, kind, "service.encode", func() { _, _ = json.Marshal(hits) })
	p.rec.finish(root)
}

// put replays PUT /v1/schemas/{name}: decode and parse, lookup, upgrade
// (diff, version bump, artifact migration), cache and profile
// invalidation, corpus profile migration, the synchronous scoped
// re-match, encode. A probe times evolve.Diff alone on the same versions.
func (p *replayer) put(name string, body []byte) error {
	req := p.newReq()
	kind := kindPut
	root := p.rec.begin(req, -1, kind, "service.handler")
	defer p.rec.finish(root)
	var raw json.RawMessage
	p.rec.run(req, root, kind, "service.decode", func() { _ = json.Unmarshal(body, &raw) })
	var sc *schema.Schema
	var err error
	p.rec.run(req, root, kind, "schema.parse", func() { sc, err = schema.ParseJSON(raw) })
	if err != nil {
		return err
	}
	var cur *registry.Entry
	var ok bool
	p.rec.run(req, root, kind, "registry.lookup", func() { cur, ok = p.reg.Schema(name) })
	if !ok || cur.Fingerprint == sc.Fingerprint() {
		return fmt.Errorf("replay put %s: not registered or unchanged", name)
	}
	opts := evolve.Options{Engine: p.eng}
	probe := p.rec.begin(0, -1, "probe", "evolve.diff")
	evolve.Diff(cur.Schema, sc, opts)
	p.rec.finish(probe)

	old := cur.Schema
	var rep *evolve.UpgradeReport
	var d *evolve.ChangeSet
	p.rec.run(req, root, kind, "evolve.upgrade", func() { rep, d, err = evolve.Upgrade(p.reg, sc, "", opts) })
	if err != nil {
		return err
	}
	p.rec.run(req, root, kind, "service.invalidate", func() {
		p.mu.Lock()
		for k := range p.cache {
			if k.fa == rep.OldFingerprint || k.fb == rep.OldFingerprint {
				delete(p.cache, k)
			}
		}
		p.mu.Unlock()
		p.pc.InvalidateFingerprint(rep.OldFingerprint)
	})
	p.rec.run(req, root, kind, "corpus.evolve_profile", func() {
		removed, added := changedElements(d, old, sc)
		p.pipe.EvolveProfile(rep.OldFingerprint, rep.NewFingerprint, removed, added)
	})
	p.rec.run(req, root, kind, "evolve.rematch", func() {
		_, err = evolve.Rematch(p.reg, p.eng, d, rep, replayThreshold)
	})
	if err != nil {
		return err
	}
	p.rec.run(req, root, kind, "service.encode", func() { _, _ = json.Marshal(rep) })
	return nil
}

// changedElements maps a change set onto the element lists the corpus
// profile migration consumes, as the PUT handler does.
func changedElements(d *evolve.ChangeSet, old, new *schema.Schema) (removed, added []*schema.Element) {
	for _, ch := range d.Removed {
		if el := old.ByPath(ch.OldPath); el != nil {
			removed = append(removed, el)
		}
	}
	for _, chs := range [][]evolve.Change{d.Renamed, d.Moved, d.Redocumented} {
		for _, ch := range chs {
			if el := old.ByPath(ch.OldPath); el != nil {
				removed = append(removed, el)
			}
			if el := new.ByPath(ch.NewPath); el != nil {
				added = append(added, el)
			}
		}
	}
	for _, ch := range d.Added {
		if el := new.ByPath(ch.NewPath); el != nil {
			added = append(added, el)
		}
	}
	return removed, added
}

// compileProbe times core.CompileSchema on a schema not probed before.
func (p *replayer) compileProbe(s *schema.Schema) {
	if p.compileSeen[s.Name] {
		return
	}
	p.compileSeen[s.Name] = true
	p.rec.run(0, -1, "probe", "core.compile", func() { core.CompileSchema(s) })
}

// snapshotProbe times one store snapshot of the replayed registry.
func (p *replayer) snapshotProbe() error {
	var err error
	p.rec.run(0, -1, "probe", "store.snapshot", func() { err = p.st.Snapshot() })
	return err
}

// follow replays the replay store's WAL into a second store the way a
// follower applies a shipped batch: decode the record, append it at the
// leader's LSN, apply its ops to the follower registry.
func (p *replayer) follow(dir string) error {
	fst, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncPerCommit})
	if err != nil {
		return err
	}
	defer fst.Close()
	freg := fst.Registry()
	from := uint64(0) // ReadRecords returns records after this LSN
	for {
		recs, err := p.st.ReadRecords(from, 64, 8<<20)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return nil
		}
		for _, rec := range recs {
			req := p.newReq()
			kind := kindApply
			t0 := time.Now()
			root := p.rec.begin(req, -1, kind, "repl.apply")
			var ops []registry.Op
			p.rec.run(req, root, kind, "repl.decode", func() { err = json.Unmarshal(rec.Payload, &ops) })
			if err != nil {
				return fmt.Errorf("record %d: %w", rec.LSN, err)
			}
			p.rec.run(req, root, kind, "store.append", func() {
				fst.LockBatch()
				err = fst.AppendReplicated(rec.LSN, rec.Payload, len(ops))
				fst.UnlockBatch()
			})
			if err != nil {
				return err
			}
			p.rec.run(req, root, kind, "registry.apply", func() { err = freg.Apply(ops) })
			if err != nil {
				return err
			}
			p.rec.finish(root)
			p.applyTotal += time.Since(t0)
			p.appliedOps += len(ops)
			from = rec.LSN
		}
	}
}

// replayAll runs a traced request list through the replayer.
func (p *replayer) replayAll(reqs []request) error {
	for _, r := range reqs {
		var err error
		switch r.kind {
		case kindMatch:
			if s, ok := p.reg.Schema(r.a); ok {
				p.compileProbe(s.Schema)
			}
			err = p.match(r)
		case kindCorpus:
			if s, ok := p.reg.Schema(r.query); ok {
				p.compileProbe(s.Schema)
			}
			err = p.corpus(r)
		case kindSearch:
			p.search(r)
		case kindBulk:
			err = p.bulk(kindBulk, r.body)
		case kindPut:
			err = p.put(r.name, r.body)
		}
		if err != nil {
			return fmt.Errorf("replaying %s: %w", r.kind, err)
		}
	}
	return nil
}

// spanMedian is the median duration (ms) of the named non-root spans.
func spanMedian(spans []span, name string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, ms(s.dur()))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
