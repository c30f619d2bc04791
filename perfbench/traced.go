package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"harmony/internal/synth"
)

// Per-kind caps on how many of the traced run's requests the replay
// repeats in-process, in the order they were sent; the sweeps add a few
// requests of each kind the workload's load does not send, so every
// layer is timed on every workload's inputs.
var replayCaps = map[string]int{kindMatch: 40, kindCorpus: 16, kindSearch: 30, kindBulk: 20, kindPut: 20}

const (
	sweepCorpus = 3
	sweepSearch = 10
	sweepPut    = 5
	sweepMatch  = 20
)

// perLayer lists the per-layer metrics in output order with their units.
var perLayer = []struct{ name, unit string }{
	{"service.match_cache.hit_ratio", "ratio"},
	{"service.encode_ms", "ms"},
	{"service.residual_ms", "ms"},
	{"service.ingest.prepare_ms", "ms"},
	{"service.ingest.admit_ms", "ms"},
	{"service.cache_invalidated_per_put", "count"},
	{"core.compile_ms", "ms"},
	{"core.profile_cache.hit_ratio", "ratio"},
	{"core.preprocess_ms", "ms"},
	{"core.vote_ms", "ms"},
	{"core.propagate_ms", "ms"},
	{"core.match_ms", "ms"},
	{"core.select_ms", "ms"},
	{"core.pairs_scored_per_match", "count"},
	{"core.sparse_match_share", "ratio"},
	{"corpus.block_ms", "ms"},
	{"corpus.score_ms", "ms"},
	{"corpus.engine_runs_per_query", "count"},
	{"corpus.early_exit_ratio", "ratio"},
	{"corpus.reuse_ratio", "ratio"},
	{"corpus.cache_hit_ratio", "ratio"},
	{"corpus.candidates_per_query", "count"},
	{"search.docs_scored_per_query", "count"},
	{"search.block_skip_ratio", "ratio"},
	{"search.query_ms", "ms"},
	{"search.merges", "count"},
	{"search.tail_docs", "count"},
	{"registry.admit_ms_per_batch", "ms"},
	{"registry.add_match_ms", "ms"},
	{"registry.artifacts_per_req", "count"},
	{"store.fsyncs_per_req", "count"},
	{"store.fsync_ms", "ms"},
	{"store.wal_bytes_per_req", "bytes"},
	{"store.wal_bytes_per_user_byte", "ratio"},
	{"store.group_commit_records", "count"},
	{"store.snapshots", "count"},
	{"store.snapshot_ms", "ms"},
	{"schema.parse_us", "us"},
	{"evolve.diff_ms", "ms"},
	{"evolve.upgrade_ms", "ms"},
	{"evolve.pairs_migrated_per_put", "count"},
	{"repl.apply_us_per_op", "us"},
}

// tracedRun repeats the untraced run's load on a fresh daemon while
// scraping its counters, then replays the same inputs in-process under
// spans and prints the per-layer ledger.
func tracedRun(bin, runDir, work string, w *workload, seed int64, seconds int) (*result, error) {
	var m0, m1, m2 promSamples
	var s1, s2 statsDoc
	d, setupS, err := setup(bin, runDir, w, 0, func(d *daemon) error {
		var err error
		m0, err = d.scrapeMetrics()
		return err
	})
	if err != nil {
		return nil, err
	}
	scrape := func(m *promSamples, s *statsDoc) error {
		var err error
		if *m, err = d.scrapeMetrics(); err != nil {
			return err
		}
		return d.getJSON("/v1/stats", s)
	}
	if err := scrape(&m1, &s1); err != nil {
		d.stop()
		return nil, err
	}
	var outs []*outcome
	win, err := d.measure(func() { outs = runLoad(d, w, seconds) })
	if err == nil {
		err = scrape(&m2, &s2)
	}
	d.stop()
	if err != nil {
		return nil, err
	}
	rep := summarize(w, outs, []float64{setupS}, win)
	res := rep.result()
	rep.print(w, res, s1.Schemas, s2.Schemas, []float64{setupS})
	res.Metrics = make(map[string]metricValue)

	vals := scrapedMetrics(m0, m1, m2, &s1, &s2, outs)

	rec := newRecorder()
	p, err := newReplayer(filepath.Join(runDir, "replay"), rec)
	if err != nil {
		return nil, err
	}
	if err := p.bulk("setup_bulk", w.fix.ndjson); err != nil {
		p.close()
		return nil, fmt.Errorf("replaying fixture: %w", err)
	}
	reqs, sent := replayList(w, outs, seed)
	err = p.replayAll(reqs)
	if err == nil {
		err = p.follow(filepath.Join(runDir, "follower"))
	}
	if err == nil {
		// Last: a snapshot compacts the WAL the follower replay reads.
		err = p.snapshotProbe()
	}
	if cerr := p.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	e2e := make(map[string]float64)
	for k, xs := range rep.lat {
		if sent[k] || sent[kindMatch] && (k == kindMatchCold || k == kindMatchWarm) {
			e2e[k] = median(xs)
		}
	}
	tables := buildLedger(rec.spans, e2e)
	printLedger(os.Stdout, tables)
	replayMetrics(vals, p, rec.spans, tables, primary[w.name])

	if err := writeLedger(work, w.name, seed, tables, rec.spans); err != nil {
		return nil, err
	}
	fmt.Println("per-layer metrics:")
	for _, m := range perLayer {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Printf("  %-34s %14.4f %s\n", m.name, v, m.unit)
	}
	return res, nil
}

// scrapedMetrics derives the counter-based per-layer metrics: the load
// window is m1 -> m2 (after set-up to end of run); the ingest stage
// timings use boot -> end (m0 -> m2), so the fixture's bulk load counts.
func scrapedMetrics(m0, m1, m2 promSamples, s1, s2 *statsDoc, outs []*outcome) map[string]float64 {
	v := make(map[string]float64)
	reqs, userBytes := 0.0, 0.0
	var cs corpusStats
	queries := 0
	for _, o := range outs {
		reqs += float64(o.attempted - o.failed)
		userBytes += float64(o.sentBytes)
		cs.add(o.corpus)
		queries += o.corpusQueries
	}
	hits := float64(s2.Cache.Hits + s2.Cache.Coalesced - s1.Cache.Hits - s1.Cache.Coalesced)
	v["service.match_cache.hit_ratio"] = ratio(hits, hits+float64(s2.Cache.Misses-s1.Cache.Misses))
	stage := func(name string) float64 {
		return 1000 * ratio(delta(m0, m2, "harmony_ingest_stage_seconds_sum", `stage="`+name+`"`),
			delta(m0, m2, "harmony_ingest_stage_seconds_count", `stage="`+name+`"`))
	}
	v["service.ingest.prepare_ms"] = stage("prepare")
	v["service.ingest.admit_ms"] = stage("admit")
	upgrades := float64(s2.Evolve.Upgrades - s1.Evolve.Upgrades)
	v["service.cache_invalidated_per_put"] = ratio(float64(s2.Evolve.CacheInvalidated-s1.Evolve.CacheInvalidated), upgrades)
	v["evolve.pairs_migrated_per_put"] = ratio(float64(s2.Evolve.PairsMigrated-s1.Evolve.PairsMigrated), upgrades)

	ph := delta(m1, m2, "harmony_engine_matches_total")
	v["core.profile_cache.hit_ratio"] = ratio(delta(m1, m2, "harmony_engine_profile_cache_total", `outcome="hit"`),
		delta(m1, m2, "harmony_engine_profile_cache_total", `outcome="hit"`)+delta(m1, m2, "harmony_engine_profile_cache_total", `outcome="miss"`))
	for _, phase := range []string{"preprocess", "vote", "propagate"} {
		v["core."+phase+"_ms"] = 1000 * ratio(delta(m1, m2, "harmony_engine_match_phase_seconds_sum", `phase="`+phase+`"`), ph)
	}
	v["core.pairs_scored_per_match"] = ratio(delta(m1, m2, "harmony_engine_pairs_scored_total"), ph)
	v["core.sparse_match_share"] = ratio(delta(m1, m2, "harmony_engine_matches_total", `mode="sparse"`), ph)

	q := float64(queries)
	c := float64(cs.Candidates)
	v["corpus.engine_runs_per_query"] = ratio(float64(cs.EngineRuns), q)
	v["corpus.early_exit_ratio"] = ratio(float64(cs.EarlyExits), c)
	v["corpus.reuse_ratio"] = ratio(float64(cs.Reused), c)
	v["corpus.cache_hit_ratio"] = ratio(float64(cs.CacheHits), c)
	v["corpus.candidates_per_query"] = ratio(c, q)
	// The daemon reports each stage in whole milliseconds, truncated.
	v["corpus.block_ms"] = ratio(float64(cs.BlockMillis), q)
	v["corpus.score_ms"] = ratio(float64(cs.ScoreMillis), q)

	searches := float64(s2.Index.Searches - s1.Index.Searches)
	v["search.docs_scored_per_query"] = ratio(float64(s2.Index.DocsScored-s1.Index.DocsScored), searches)
	dec, skip := float64(s2.Index.BlocksDecoded-s1.Index.BlocksDecoded), float64(s2.Index.BlocksSkipped-s1.Index.BlocksSkipped)
	v["search.block_skip_ratio"] = ratio(skip, dec+skip)
	v["search.merges"] = float64(s2.Index.Merges - s1.Index.Merges)
	v["search.tail_docs"] = float64(s2.Index.TailSchemas)

	v["registry.artifacts_per_req"] = ratio(float64(s2.Artifacts-s1.Artifacts), reqs)
	if s1.Store != nil && s2.Store != nil {
		v["store.fsyncs_per_req"] = ratio(float64(s2.Store.Syncs-s1.Store.Syncs), reqs)
		wal := float64(s2.Store.AppendedBytes - s1.Store.AppendedBytes)
		v["store.wal_bytes_per_req"] = ratio(wal, reqs)
		v["store.wal_bytes_per_user_byte"] = ratio(wal, userBytes)
		v["store.snapshots"] = float64(s2.Store.Snapshots - s1.Store.Snapshots)
	}
	v["store.fsync_ms"] = 1000 * ratio(delta(m1, m2, "harmony_wal_fsync_seconds_sum"), delta(m1, m2, "harmony_wal_fsync_seconds_count"))
	v["store.group_commit_records"] = ratio(delta(m1, m2, "harmony_wal_group_commit_records_sum"), delta(m1, m2, "harmony_wal_group_commit_records_count"))
	return v
}

// replayMetrics derives the span-based per-layer metrics.
func replayMetrics(v map[string]float64, p *replayer, spans []span, tables []*kindTable, primaryKind string) {
	v["service.encode_ms"] = spanMedian(spans, "service.encode")
	for _, t := range tables {
		if t.Kind == primaryKind {
			v["service.residual_ms"] = t.Residual
		}
	}
	v["core.compile_ms"] = spanMedian(spans, "core.compile")
	v["core.match_ms"] = spanMedian(spans, "core.match")
	v["core.select_ms"] = spanMedian(spans, "core.select")
	v["search.query_ms"] = spanMedian(spans, "search.query")
	v["registry.admit_ms_per_batch"] = median(p.admitBatch)
	v["registry.add_match_ms"] = spanMedian(spans, "registry.add_match")
	v["store.snapshot_ms"] = spanMedian(spans, "store.snapshot")
	v["schema.parse_us"] = 1e6 * ratio(p.parse.Seconds(), float64(p.parsed))
	v["evolve.diff_ms"] = spanMedian(spans, "evolve.diff")
	v["evolve.upgrade_ms"] = spanMedian(spans, "evolve.upgrade")
	v["repl.apply_us_per_op"] = 1e6 * ratio(p.applyTotal.Seconds(), float64(p.appliedOps))
}

// replayList picks the requests to replay: the traced run's sent
// prefixes, interleaved across clients and capped per kind, plus sweep
// requests for kinds the load never sent. It also reports which kinds
// the load sent.
func replayList(w *workload, outs []*outcome, seed int64) ([]request, map[string]bool) {
	sent := make(map[string]bool)
	taken := make(map[string]int)
	var out []request
	for i := 0; ; i++ {
		more := false
		for c, seq := range w.clients {
			if i >= outs[c].attempted {
				continue
			}
			more = true
			r := seq[i]
			sent[r.kind] = true
			if taken[r.kind] < replayCaps[r.kind] {
				taken[r.kind]++
				out = append(out, r)
			}
		}
		if !more {
			break
		}
	}
	rng := rand.New(rand.NewSource(seed + 99))
	names := make([]string, len(w.fix.schemas))
	for i, s := range w.fix.schemas {
		names[i] = s.Name
	}
	if !sent[kindCorpus] {
		for i := 0; i < sweepCorpus; i++ {
			out = append(out, request{kind: kindCorpus, query: names[rng.Intn(len(names))]})
		}
	}
	if !sent[kindSearch] {
		toks := frequentTokens(w.fix.schemas, 40)
		for i := 0; i < sweepSearch; i++ {
			a, b := toks[rng.Intn(len(toks))], toks[rng.Intn(len(toks))]
			out = append(out, request{kind: kindSearch, q: a + "+" + b})
		}
	}
	if !sent[kindMatch] {
		g := newReadGen(w.fix, seed+98, 98)
		for i := 0; i < sweepMatch; i++ {
			out = append(out, g.match())
		}
	}
	if !sent[kindPut] {
		// Each swept schema evolves once, from its fixture version.
		for _, i := range rng.Perm(len(w.fix.schemas))[:min(sweepPut, len(w.fix.schemas))] {
			s := w.fix.schemas[i]
			next, _, _ := synth.Evolve(s, synth.NewTruth(), rng.Int63(), synth.ChurnMixed(evolveChurn))
			if next.Fingerprint() != s.Fingerprint() {
				out = append(out, request{kind: kindPut, name: s.Name, body: mustJSON(next)})
			}
		}
	}
	return out, sent
}

// writeLedger writes every span and the per-kind tables to
// <work>/ledger/<workload>-seed<seed>.json.
func writeLedger(work, workload string, seed int64, tables []*kindTable, spans []span) error {
	dir := filepath.Join(work, "ledger")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.Marshal(ledgerFile{Workload: workload, Seed: seed, Tables: tables, Spans: spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	logf("wrote %d spans and %d tables to %s", len(spans), len(tables), path)
	return nil
}
