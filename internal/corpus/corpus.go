// Package corpus implements repository-scale matching: one query schema
// against the full metadata registry, returning the top-k best-matching
// schemata with their element correspondences — the paper's enterprise
// idiom of "using one's target schema as the query term" over the MDR,
// made cheap enough to serve interactively.
//
// A naive implementation runs the O(n·m) match engine against every
// registered schema. The pipeline avoids that with three stages:
//
//  1. Blocking: candidate generation over the registry's BM25 index plus
//     a token-overlap prefilter, pruning the corpus to a bounded candidate
//     set (Config.Candidates).
//  2. Sharded scoring: a worker pool partitions the candidates into
//     shards, runs the match engine per surviving candidate with bounded
//     concurrency, and maintains a streaming top-k min-heap. Before each
//     engine run a cheap upper bound (derived from the token-overlap
//     coefficient) is compared against the current k-th score; candidates
//     that cannot make the heap are skipped.
//  3. Mapping reuse: when stored match artifacts connect the query to a
//     candidate through a hub schema (A→H and H→B), the pipeline composes
//     them transitively (score multiplication, hub provenance) and runs
//     the engine only over the query elements the composed mapping does
//     not cover — Smith et al.'s "reuse of previously validated mappings"
//     as an executable fast path.
//
// The pipeline is safe for concurrent use; token profiles of registered
// schemata are memoized by content fingerprint.
package corpus

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"harmony/internal/core"
	"harmony/internal/registry"
	"harmony/internal/schema"
	"harmony/internal/text"
)

// Defaults of the two query knobs callers most often leave unset.
const (
	// DefaultCandidates is the default blocking budget.
	DefaultCandidates = 32
	// DefaultTopK is the default number of ranked matches returned.
	DefaultTopK = 5
)

// Config tunes one corpus query. The zero value means "server defaults"
// for every knob (see withDefaults).
type Config struct {
	// Candidates is the blocking budget: at most this many schemata
	// survive candidate generation and are considered for engine scoring
	// (default DefaultCandidates).
	Candidates int
	// TopK is the number of ranked matches returned (default
	// DefaultTopK).
	TopK int
	// Threshold is the correspondence confidence filter applied when
	// selecting element pairs per candidate (default 0.4).
	Threshold float64
	// MinOverlap is the token-overlap prefilter floor: candidates whose
	// overlap coefficient with the query falls below it are pruned before
	// scoring (default 0.05).
	MinOverlap float64
	// BlockBudget caps how many documents the blocking index scores
	// exactly before terminating the retrieval early (0 = exact). The
	// block-max index prunes most of the corpus without scoring it, so a
	// budget in the low thousands changes nothing on typical queries but
	// bounds tail latency on adversarial ones; Stats.BlockTerminated
	// reports when it bit.
	BlockBudget int
	// Workers bounds the scoring worker pool (default GOMAXPROCS).
	Workers int
	// BoundSlack scales the token-overlap coefficient into the cheap
	// upper bound used for per-candidate early exit. The engine's voters
	// see evidence beyond shared name tokens (types, structure,
	// documentation), so the overlap alone is not admissible; the slack
	// restores headroom. 0 picks the calibrated default (1.6); values
	// below 1 make pruning aggressive and may cost recall.
	BoundSlack float64
	// MinReuseCoverage is the fraction of the query's hub-mapped
	// elements (the elements a validated query↔hub artifact covers) that
	// must survive composition before the composed mapping is used;
	// below it the composition is discarded as too weak and the engine
	// scores the candidate from scratch (default 0.5). Elements outside
	// the composed mapping are always engine-scored via the partial
	// fallback, so coverage gates only how much of the *known* mapping
	// carried through the hub.
	MinReuseCoverage float64
	// SparseBudget is the per-source candidate budget of element-level
	// sparse scoring inside each engine run (0 picks
	// core.DefaultSparseBudget, negative forces dense scoring). Above the
	// engine's size cutoff, candidate schemata are scored sparsely by
	// default: blocking prunes the corpus to schemata, sparse scoring
	// prunes each surviving schema pair to candidate element pairs.
	SparseBudget int
	// Preset names the engine configuration for cache keying; it does not
	// select the engine (the caller passes the engine). Empty disables
	// external cache lookups.
	Preset string
	// Shard and Shards partition scoring work across replicas: when
	// Shards > 1, only candidates whose fingerprint hashes to Shard (see
	// ShardOf) enter scoring, and a router merges the per-shard partials
	// with MergeTopK. The corpus itself stays fully replicated — sharding
	// partitions work, not data, so any shard can be reassigned to any
	// replica when one fails. Zero means unsharded.
	Shard  int
	Shards int
	// Exhaustive disables blocking, the prefilter and early exit: every
	// registered schema is engine-scored. This is the ground-truth mode
	// the blocked pipeline is evaluated against.
	Exhaustive bool
	// NoReuse disables the mapping-reuse stage (stage 3).
	NoReuse bool
}

func (c Config) withDefaults() Config {
	if c.Candidates <= 0 {
		c.Candidates = DefaultCandidates
	}
	if c.TopK <= 0 {
		c.TopK = DefaultTopK
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.4
	}
	if c.MinOverlap <= 0 {
		c.MinOverlap = 0.05
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BoundSlack <= 0 {
		c.BoundSlack = 1.6
	}
	if c.MinReuseCoverage <= 0 {
		c.MinReuseCoverage = 0.5
	}
	if c.SparseBudget == 0 {
		c.SparseBudget = core.DefaultSparseBudget
	}
	return c
}

// engineFor derives the scoring engine from the config: sparse
// candidate-pair scoring at the configured budget (the engine still falls
// back to dense below its size cutoff), or plain dense when the budget is
// negative.
func (c Config) engineFor(eng *core.Engine) *core.Engine {
	if c.SparseBudget > 0 {
		return eng.WithOptions(core.WithSparse(c.SparseBudget))
	}
	return eng.WithOptions(core.WithSparse(0))
}

// Pair is one element-level correspondence of a corpus match, identified
// by path so it is meaningful without the in-memory schema values.
type Pair struct {
	PathA string  `json:"pathA"`
	PathB string  `json:"pathB"`
	Score float64 `json:"score"`
}

// SchemaMatch is one ranked corpus hit: a candidate schema, its aggregate
// similarity to the query, and the element correspondences behind it.
type SchemaMatch struct {
	// Schema is the matched schema's registered name.
	Schema string `json:"schema"`
	// Score is the aggregate similarity: the sum of selected
	// correspondence scores normalized by the smaller element count, in
	// [0,1]. 1 means every element of the smaller side matched perfectly.
	Score float64 `json:"score"`
	// BlockScore is the blocking stage's BM25 relevance (0 in exhaustive
	// mode for candidates the index did not surface).
	BlockScore float64 `json:"blockScore"`
	// Pairs are the selected one-to-one correspondences at the config
	// threshold.
	Pairs []Pair `json:"pairs"`
	// Reused reports that the mapping was (at least partly) composed from
	// stored artifacts rather than fully engine-computed.
	Reused bool `json:"reused,omitempty"`
	// Hub names the intermediate schema a reused mapping was composed
	// through ("" for direct matches).
	Hub string `json:"hub,omitempty"`
	// Cached reports that the per-candidate outcome was served from an
	// external cache (see Cache) without touching the engine.
	Cached bool `json:"cached,omitempty"`
}

// Stats counts what one corpus query actually did — the observability the
// tuning knobs need.
type Stats struct {
	// CorpusSize is the number of registered schemata eligible as
	// candidates (the registry minus the query itself).
	CorpusSize int `json:"corpusSize"`
	// Candidates survived blocking and entered the scoring stage.
	Candidates int `json:"candidates"`
	// Pruned were dropped by the token-overlap prefilter or the
	// candidate budget.
	Pruned int `json:"pruned"`
	// EngineRuns counts full or partial match-engine executions.
	EngineRuns int `json:"engineRuns"`
	// EarlyExits counts candidates skipped because their upper bound
	// could not beat the current k-th score.
	EarlyExits int `json:"earlyExits"`
	// Reused counts candidates served through composed mappings.
	Reused int `json:"reused"`
	// CacheHits counts candidates served from the external cache.
	CacheHits int `json:"cacheHits"`
	// BlockDocsScored is the number of documents the blocking index
	// scored exactly (the rest of the corpus was pruned by block-max
	// bounds without being scored).
	BlockDocsScored int `json:"blockDocsScored"`
	// BlockTerminated reports that Config.BlockBudget stopped the
	// blocking retrieval before it proved the exact top candidates.
	BlockTerminated bool `json:"blockTerminated,omitempty"`
	// BlockMillis and ScoreMillis split the wall time between stages.
	BlockMillis int64 `json:"blockMillis"`
	ScoreMillis int64 `json:"scoreMillis"`
}

// Result is the product of one corpus query.
type Result struct {
	// Query is the query schema's name.
	Query string `json:"query"`
	// Matches are the top-k hits, best first.
	Matches []SchemaMatch `json:"matches"`
	// Stats describes the pipeline execution.
	Stats Stats `json:"stats"`
}

// CacheKey identifies one per-candidate outcome for external caching. It
// mirrors the service layer's fingerprint-keyed match cache so corpus
// queries and pairwise /v1/match requests share entries.
type CacheKey struct {
	FingerprintA string
	FingerprintB string
	Preset       string
	Threshold    float64
}

// Cache lets the caller serve per-candidate outcomes from, and publish
// them to, an external store (the service layer's LRU + registry
// artifacts). Implementations must be safe for concurrent use. A nil
// Cache disables both directions.
type Cache interface {
	// Lookup returns the cached correspondence set for the key, if any,
	// along with the hub the mapping was composed through ("" for
	// engine-computed outcomes) so provenance survives cache hits.
	Lookup(key CacheKey) (pairs []Pair, hub string, ok bool)
	// Store publishes a freshly computed candidate outcome for the named
	// query schema (m.Schema names the candidate side). Reused outcomes
	// carry the hub name for provenance.
	Store(key CacheKey, queryName string, m *SchemaMatch)
}

// Pipeline answers corpus queries over one registry. Construct with
// NewPipeline; safe for concurrent use.
type Pipeline struct {
	reg   *registry.Registry
	cache Cache

	mu       sync.Mutex
	profiles map[string]*tokenProfile // fingerprint -> counted token profile

	// fallbackProfiles backs engineWithProfiles for engines that arrive
	// without a compiled-profile cache; built lazily on first use.
	fallbackOnce     sync.Once
	fallbackProfiles *core.ProfileCache
}

// engineWithProfiles ensures candidate scoring never recompiles schema
// profiles from scratch on every query: engines that arrive without a
// compiled-profile cache (CLI one-shots, tests, benchmarks) are handed a
// pipeline-owned fallback so repeated queries over the same registry
// reuse compiled candidate profiles, matching the daemon's serving
// regime. Engines that already carry a cache are used as-is.
func (p *Pipeline) engineWithProfiles(eng *core.Engine) *core.Engine {
	if eng.HasProfileCache() {
		return eng
	}
	p.fallbackOnce.Do(func() {
		p.fallbackProfiles = core.NewProfileCache(0)
	})
	return eng.WithOptions(core.WithProfileCache(p.fallbackProfiles))
}

// tokenProfile is a schema's counted token profile: occurrence counts per
// normalized token (so element-level subtraction is exact) plus the sorted
// unique token list the blocking prefilter consumes.
type tokenProfile struct {
	counts map[string]int
	sorted []string
}

// resort rebuilds the sorted unique list from the counts.
func (tp *tokenProfile) resort() {
	tp.sorted = make([]string, 0, len(tp.counts))
	for t := range tp.counts {
		tp.sorted = append(tp.sorted, t)
	}
	sort.Strings(tp.sorted)
}

// maxProfiles bounds the fingerprint-keyed profile memo. Fingerprints of
// replaced schema versions never come back, so a long-running daemon that
// churns schemata would otherwise grow the memo without bound; on
// overflow the memo is simply dropped and rebuilt from live traffic.
const maxProfiles = 8192

// NewPipeline builds a pipeline over the registry. cache may be nil.
func NewPipeline(reg *registry.Registry, cache Cache) *Pipeline {
	return &Pipeline{
		reg:      reg,
		cache:    cache,
		profiles: make(map[string]*tokenProfile),
	}
}

// profile returns the sorted unique normalized token profile for a schema,
// memoized by content fingerprint.
func (p *Pipeline) profile(fingerprint string, s *schema.Schema) []string {
	p.mu.Lock()
	if tp, ok := p.profiles[fingerprint]; ok {
		p.mu.Unlock()
		return tp.sorted
	}
	p.mu.Unlock()
	tp := profileTokens(s)
	p.mu.Lock()
	if len(p.profiles) >= maxProfiles {
		p.profiles = make(map[string]*tokenProfile)
	}
	p.profiles[fingerprint] = tp
	p.mu.Unlock()
	return tp.sorted
}

// EvolveProfile migrates the memoized token profile across a schema
// version bump by re-tokenizing only the changed elements: tokens of
// removed (old-version) elements are subtracted from the counts, tokens of
// added (new-version) elements are added, and the result is memoized under
// the new fingerprint — the corpus layer's "re-block only what changed".
// Renamed elements appear on both lists (old element out, new element in);
// moved and retyped elements carry the same tokens and need not appear at
// all. When the old profile was never memoized there is nothing to migrate
// and the new version's profile is built lazily on first use; EvolveProfile
// reports whether an incremental migration actually happened.
func (p *Pipeline) EvolveProfile(oldFp, newFp string, removed, added []*schema.Element) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	old, ok := p.profiles[oldFp]
	delete(p.profiles, oldFp) // the old version no longer takes queries
	if !ok || oldFp == newFp {
		return false
	}
	counts := make(map[string]int, len(old.counts))
	for t, n := range old.counts {
		counts[t] = n
	}
	for _, e := range removed {
		for _, t := range elementTokens(e) {
			if counts[t] <= 1 {
				delete(counts, t)
			} else {
				counts[t]--
			}
		}
	}
	for _, e := range added {
		for _, t := range elementTokens(e) {
			counts[t]++
		}
	}
	tp := &tokenProfile{counts: counts}
	tp.resort()
	if len(p.profiles) >= maxProfiles {
		p.profiles = make(map[string]*tokenProfile)
	}
	p.profiles[newFp] = tp
	return true
}

// elementTokens returns one element's normalized name and documentation
// tokens.
func elementTokens(e *schema.Element) []string {
	toks := text.NormalizeName(e.Name)
	if e.Doc != "" {
		toks = append(toks, text.NormalizeDoc(e.Doc)...)
	}
	return toks
}

// profileTokens computes the counted token profile of a schema.
func profileTokens(s *schema.Schema) *tokenProfile {
	tp := &tokenProfile{counts: make(map[string]int)}
	for _, e := range s.Elements() {
		for _, t := range elementTokens(e) {
			tp.counts[t]++
		}
	}
	tp.resort()
	return tp
}

// overlapCoefficient computes |a ∩ b| / min(|a|, |b|) over two sorted
// unique token slices.
func overlapCoefficient(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	return float64(inter) / float64(n)
}

// sortMatches orders matches best-first with deterministic tie-breaking.
func sortMatches(ms []SchemaMatch) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Score != ms[j].Score {
			return ms[i].Score > ms[j].Score
		}
		return ms[i].Schema < ms[j].Schema
	})
}

// validateQuery checks the query schema is usable.
func validateQuery(q *schema.Schema) error {
	if q == nil || q.Name == "" {
		return fmt.Errorf("corpus: query schema must be non-nil and named")
	}
	if q.Len() == 0 {
		return fmt.Errorf("corpus: query schema %q has no elements", q.Name)
	}
	return nil
}
