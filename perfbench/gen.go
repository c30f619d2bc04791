package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"sync"
	"unicode"

	"harmony/internal/schema"
	"harmony/internal/synth"
)

// Workload shapes. The numbers are part of the benchmark's definition:
// changing one changes what every recorded figure means.
const (
	// casestudy
	repeatWindow   = 128 // repeats (every other request) draw from the most recent new keys
	thresholdLo    = 0.35
	thresholdSteps = 3000 // thresholds are thresholdLo + i/10000, i < steps

	// mdr corpus: synth.Collection(seed, mdrDomains, mdrPerDomain)
	mdrDomains   = 16
	mdrPerDomain = 625
	zipfS        = 1.1 // Zipf exponent of corpus query popularity
	zipfHead     = 8   // 8 queries x 32 candidates fill the 256-entry match cache

	// mdr-write: the writer mixes bulk and PUT
	bulkBatch          = 32  // schemata per bulk request (one batch, one WAL record)
	bulkEvery          = 6   // the writer's every 6th request is a bulk request, the rest PUTs
	bulkChunks         = 8   // bulk pool: bulkChunks x synth.Collection(_, 16, bulkChunkPerDomain)
	bulkChunkPerDomain = 100 // so the pool is 12800 schemata, 400 bulk requests
	putTargets         = 256 // corpus schemata the PUTs cycle through
	evolveChurn        = 0.1 // synth.ChurnMixed rate of each evolution

	seqLen = 20000 // requests generated per client; a run uses a prefix

	// Set-ups per run (setup_s is their median): an MDR set-up bulk-loads
	// 10k schemata and takes seconds, a case-study one under a second.
	caseSetups = 9
	mdrSetups  = 3
)

// Request kinds, also the rows of the per-layer ledger.
const (
	kindMatchCold = "match_cold"
	kindMatchWarm = "match_warm"
	kindMatch     = "match" // sent kind; the response says cold or warm
	kindCorpus    = "corpus"
	kindSearch    = "search"
	kindBulk      = "bulk"
	kindPut       = "put"
	kindApply     = "follower_apply"
)

// request is one generated client request.
type request struct {
	kind string
	// match
	a, b      string
	threshold float64 // 0 = server default
	// corpus (query) and search (q)
	query string
	rank  int // Zipf rank of a corpus query
	q     string
	// bulk: NDJSON body of n new schemata
	body  []byte
	n     int
	names []string
	// put: body is the schema JSON; version is the expected new version
	name    string
	version int
}

// fixture is the registry a workload starts from plus everything needed
// to check responses against the planted truth.
type fixture struct {
	schemas []*schema.Schema
	lines   [][]byte // one NDJSON line per schema
	ndjson  []byte
	byName  map[string]*schema.Schema
	// labels maps corpus schema names to their planted domain (mdr).
	labels map[string]int
	// vocab holds each domain's most frequent name tokens (mdr).
	vocab [][]string
	// truth maps "a\x00b" to the planted correspondences between a and b
	// as "pathA\x00pathB" keys (casestudy; only pairs from one generator
	// call have planted truth).
	truth map[string]map[string]bool
}

// workload is one generated run: the fixture and a request sequence per
// client.
type workload struct {
	name    string
	fix     *fixture
	clients [][]request
	// extraFlags are daemon flags beyond the defaults (documented).
	extraFlags []string
	setups     int
}

func newFixture(schemas []*schema.Schema) *fixture {
	f := &fixture{byName: make(map[string]*schema.Schema, len(schemas))}
	var buf bytes.Buffer
	for _, s := range schemas {
		line := mustJSON(s)
		f.lines = append(f.lines, line)
		buf.Write(line)
		buf.WriteByte('\n')
		f.byName[s.Name] = s
	}
	f.schemas = schemas
	f.ndjson = buf.Bytes()
	return f
}

func mustJSON(s *schema.Schema) []byte {
	b, err := s.MarshalJSON()
	if err != nil {
		panic(fmt.Sprintf("marshal %s: %v", s.Name, err))
	}
	return b
}

func pairKey(a, b string) string { return a + "\x00" + b }

// addTruth records the planted correspondences of every ordered pair of
// schemata that one generator call produced, under the names the daemon
// registers them by. Truth is looked up by the generator's own schema
// names, so call it before renaming a schema. Every pair of one call
// shares planted concepts; an empty set means a lookup went wrong.
func (f *fixture) addTruth(schemas []*schema.Schema, truth *synth.Truth, names []string) {
	if f.truth == nil {
		f.truth = make(map[string]map[string]bool)
	}
	for i := range schemas {
		for j := range schemas {
			if i == j {
				continue
			}
			set := make(map[string]bool)
			for _, p := range truth.Pairs(schemas[i], schemas[j]) {
				set[pairKey(p[0], p[1])] = true
			}
			if len(set) == 0 {
				panic(fmt.Sprintf("no planted truth between %s and %s", names[i], names[j]))
			}
			f.truth[pairKey(names[i], names[j])] = set
		}
	}
}

// genCaseStudy builds the paper's case study registry: SA x SB plus the
// five schemata of the expanded study, whose own "SA" is renamed so it
// does not collide. Requests are /v1/match over the 21 unordered pairs
// with fresh thresholds (new keys, computed) or exact repeats (cached).
func genCaseStudy(seed int64) *workload {
	sa, sb, csTruth := synth.CaseStudy(seed)
	exp, expTruth := synth.Expanded(seed + 1)
	expNames := make([]string, len(exp))
	for i, s := range exp {
		expNames[i] = s.Name
	}
	expNames[0] = "SA_X"
	f := &fixture{}
	f.addTruth([]*schema.Schema{sa, sb}, csTruth, []string{"SA", "SB"})
	f.addTruth(exp, expTruth, expNames)
	exp[0].Name = expNames[0]
	all := append([]*schema.Schema{sa, sb}, exp...)
	full := newFixture(all)
	full.truth = f.truth

	var pairs [][2]string
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			pairs = append(pairs, [2]string{all[i].Name, all[j].Name})
		}
	}
	// New keys walk the 21 pairs in successive seeded permutations, so
	// every run sees the same mix of pair sizes.
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var issued []request
	var order []int
	seq := make([]request, 0, seqLen)
	for len(seq) < seqLen {
		if len(seq)%2 == 1 {
			// Repeats come from the last repeatWindow new keys, which a
			// 256-entry LRU always still holds.
			seq = append(seq, issued[max(0, len(issued)-repeatWindow)+rng.Intn(min(len(issued), repeatWindow))])
			continue
		}
		if len(order) == 0 {
			order = rng.Perm(len(pairs))
		}
		p := pairs[order[0]]
		th := thresholdLo + float64(rng.Intn(thresholdSteps))/10000
		key := fmt.Sprintf("%s\x00%s\x00%.4f", p[0], p[1], th)
		if seen[key] {
			continue
		}
		order = order[1:]
		seen[key] = true
		r := request{kind: kindMatch, a: p[0], b: p[1], threshold: th}
		issued = append(issued, r)
		seq = append(seq, r)
	}
	return &workload{name: "casestudy", fix: full, clients: [][]request{seq}, setups: caseSetups}
}

// mdrCorpus generates the enterprise MDR fixture: 10k schemata in 16
// planted domains.
func mdrCorpus(seed int64) *fixture {
	schemas, labels, _ := synth.Collection(seed, mdrDomains, mdrPerDomain)
	f := newFixture(schemas)
	f.labels = make(map[string]int, len(schemas))
	for i, s := range schemas {
		f.labels[s.Name] = labels[i]
	}
	f.vocab = domainVocab(f)
	return f
}

// readGen draws the read-side requests of the MDR workloads: corpus top-k
// queries Zipf-skewed over the corpus (through a seeded permutation, so
// the hot head is a different set of schemata per seed), two-term search
// queries from one domain's vocabulary, and small dense matches between
// schemata of one domain.
type readGen struct {
	rng     *rand.Rand
	kinds   *rand.Rand
	zipf    *rand.Zipf
	perm    []int
	fix     *fixture
	domains [][]string // schema names per domain
	pairs   []request  // small matches issued so far
	matches int
}

// newReadGen draws content (which schemata, terms and pairs) from seed.
// The sequence of request kinds and of Zipf ranks comes from stream
// alone, so every seed has the same mix and the same repeat structure —
// the same share of corpus queries the match cache can serve — and seeds
// differ only in what the requests name.
func newReadGen(f *fixture, seed, stream int64) *readGen {
	rng := rand.New(rand.NewSource(seed))
	shape := rand.New(rand.NewSource(stream))
	n := len(f.schemas)
	g := &readGen{
		rng:   rng,
		kinds: shape,
		zipf:  rand.NewZipf(shape, zipfS, 1, uint64(n-1)),
		perm:  rng.Perm(n),
		fix:   f,
	}
	g.domains = make([][]string, mdrDomains)
	for _, s := range f.schemas {
		d := f.labels[s.Name]
		g.domains[d] = append(g.domains[d], s.Name)
	}
	return g
}

// domainVocab returns, per domain, the 40 name tokens most frequent in
// that domain's schemata.
func domainVocab(f *fixture) [][]string {
	byDomain := make([][]*schema.Schema, mdrDomains)
	for _, s := range f.schemas {
		d := f.labels[s.Name]
		byDomain[d] = append(byDomain[d], s)
	}
	out := make([][]string, mdrDomains)
	for d, ss := range byDomain {
		out[d] = frequentTokens(ss, 40)
	}
	return out
}

// frequentTokens returns the n most frequent element-name tokens of the
// schemata, most frequent first.
func frequentTokens(schemas []*schema.Schema, n int) []string {
	counts := make(map[string]int)
	for _, s := range schemas {
		for _, e := range s.Elements() {
			for _, t := range nameTokens(e.Name) {
				counts[t]++
			}
		}
	}
	toks := make([]string, 0, len(counts))
	for t := range counts {
		toks = append(toks, t)
	}
	sort.Slice(toks, func(i, j int) bool {
		if counts[toks[i]] != counts[toks[j]] {
			return counts[toks[i]] > counts[toks[j]]
		}
		return toks[i] < toks[j]
	})
	return toks[:min(n, len(toks))]
}

// nameTokens splits an element name on separators and case changes and
// keeps lower-cased tokens of three letters or more.
func nameTokens(name string) []string {
	var toks []string
	var cur []rune
	flush := func() {
		if len(cur) >= 3 {
			toks = append(toks, strings.ToLower(string(cur)))
		}
		cur = cur[:0]
	}
	rs := []rune(name)
	for i, r := range rs {
		switch {
		case !unicode.IsLetter(r):
			flush()
		case unicode.IsUpper(r) && i > 0 && unicode.IsLower(rs[i-1]):
			flush()
			cur = append(cur, r)
		default:
			cur = append(cur, r)
		}
	}
	flush()
	return toks
}

func (g *readGen) corpus() request {
	rank := int(g.zipf.Uint64())
	return request{kind: kindCorpus, query: g.fix.schemas[g.perm[rank]].Name, rank: rank}
}

func (g *readGen) search() request {
	v := g.fix.vocab[g.rng.Intn(len(g.fix.vocab))]
	a := g.rng.Intn(len(v))
	b := (a + 1 + g.rng.Intn(len(v)-1)) % len(v)
	return request{kind: kindSearch, q: url.QueryEscape(v[a] + " " + v[b])}
}

// match alternates new pairs and repeats of an earlier one.
func (g *readGen) match() request {
	if len(g.pairs) > 0 && g.matches%2 == 1 {
		g.matches++
		return g.pairs[g.rng.Intn(len(g.pairs))]
	}
	dom := g.domains[g.rng.Intn(len(g.domains))]
	i := g.rng.Intn(len(dom))
	j := (i + 1 + g.rng.Intn(len(dom)-1)) % len(dom)
	r := request{kind: kindMatch, a: dom[i], b: dom[j]}
	g.pairs = append(g.pairs, r)
	g.matches++
	return r
}

// genMDRQuery: two clients each send the corpus/search/match mix
// against the 10k corpus.
func genMDRQuery(seed int64) *workload {
	f := mdrCorpus(seed)
	w := &workload{name: "mdr-query", fix: f, setups: mdrSetups}
	for c := 0; c < 2; c++ {
		w.clients = append(w.clients, readSeq(newReadGen(f, seed*31+int64(c)+1, int64(c)+1), queryMix))
	}
	return w
}

// Request mixes of the MDR read clients: the shares of corpus top-k and
// search requests; the rest are small matches.
var (
	queryMix  = [2]float64{0.5, 0.3}
	readerMix = [2]float64{0.6, 0.4}
)

// readSeq draws seqLen requests in the given mix.
func readSeq(g *readGen, mix [2]float64) []request {
	seq := make([]request, 0, seqLen)
	for len(seq) < seqLen {
		switch x := g.kinds.Float64(); {
		case x < mix[0]:
			seq = append(seq, g.corpus())
		case x < mix[0]+mix[1]:
			seq = append(seq, g.search())
		default:
			seq = append(seq, g.match())
		}
	}
	return seq
}

// snapshotInterval makes the store's compaction check run within a
// mdr-write run (three times in a 30 s load); the default (1m) is longer
// than a run.
const snapshotInterval = "10s"

// genMDRWrite: client 1 sends a bulk request of new schemata every
// bulkEvery requests and evolution PUTs of corpus schemata in between;
// client 2 runs the corpus/search read mix. The bulk pool is fixed (bulkPool batches): once it is used up the
// writer sends PUTs only, so a faster daemon is not starved of work and
// the corpus cannot grow without bound. PUTs cycle through putTargets
// schemata, alternating each between its original content and one
// synth.Evolve step of it, so every PUT is a real version bump with a
// ChurnMixed-sized diff and the sequence never runs out.
func genMDRWrite(seed int64) *workload {
	f := mdrCorpus(seed)
	w := &workload{name: "mdr-write", fix: f, setups: mdrSetups,
		extraFlags: []string{"-snapshot-interval", snapshotInterval}}

	rng := rand.New(rand.NewSource(seed*31 + 7))
	chunks := make([][]*schema.Schema, bulkChunks)
	targets := rng.Perm(len(f.schemas))[:putTargets]
	evolved := make([]*schema.Schema, putTargets)
	evolveSeeds := make([]int64, putTargets)
	for i := range evolveSeeds {
		evolveSeeds[i] = rng.Int63()
	}
	var wg sync.WaitGroup
	for k := range chunks {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s, _, _ := synth.Collection(seed+1000003+int64(k), mdrDomains, bulkChunkPerDomain)
			for _, sc := range s {
				sc.Name = fmt.Sprintf("W%d_%s", k, sc.Name)
			}
			chunks[k] = s
		}(k)
	}
	for half := 0; half < 2; half++ {
		wg.Add(1)
		go func(half int) {
			defer wg.Done()
			for i := half; i < putTargets; i += 2 {
				base := f.schemas[targets[i]]
				for s := evolveSeeds[i]; ; s++ {
					next, _, _ := synth.Evolve(base, synth.NewTruth(), s, synth.ChurnMixed(evolveChurn))
					if next.Fingerprint() != base.Fingerprint() {
						evolved[i] = next
						break
					}
				}
			}
		}(half)
	}
	wg.Wait()
	var fresh []*schema.Schema
	for _, c := range chunks {
		fresh = append(fresh, c...)
	}
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })

	bodies := make([][2][]byte, putTargets) // evolved, original
	for i, t := range targets {
		bodies[i] = [2][]byte{mustJSON(evolved[i]), f.lines[t]}
	}
	var writer []request
	puts := 0
	for len(writer) < seqLen {
		if len(fresh) >= bulkBatch && len(writer)%bulkEvery == 0 {
			var buf bytes.Buffer
			names := make([]string, 0, bulkBatch)
			for _, s := range fresh[:bulkBatch] {
				buf.Write(mustJSON(s))
				buf.WriteByte('\n')
				names = append(names, s.Name)
			}
			fresh = fresh[bulkBatch:]
			writer = append(writer, request{kind: kindBulk, body: buf.Bytes(), n: bulkBatch, names: names})
			continue
		}
		i, pass := puts%putTargets, puts/putTargets
		puts++
		writer = append(writer, request{kind: kindPut, name: evolved[i].Name, body: bodies[i][pass%2], version: pass + 2})
	}
	reader := readSeq(newReadGen(f, seed*31+2, 3), readerMix)
	w.clients = [][]request{writer, reader}
	return w
}
