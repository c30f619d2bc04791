package core

import (
	"math"
	"testing"

	"harmony/internal/schema"
	"harmony/internal/synth"
)

// TestProfileCacheBitwiseEquality is the central correctness claim of
// the compiled-profile cache: matching through the cache must produce
// bit-identical scores to a fresh cache-less engine, dense and sparse,
// on the cold (compiling) match and on the warm (cache-hit) repeat. A
// second schema pair built from overlapping concepts, and so sharing
// many name shapes, is matched first through the same cache, so the
// per-worker shape memo already holds entries computed for another pair
// when the pair under test is scored. Both engines share that memo, so
// every stored cell is also checked against the memo-free votes Explain
// computes; propagation is off so those merged votes are the final
// scores.
func TestProfileCacheBitwiseEquality(t *testing.T) {
	sa, _ := synth.Custom("A", schema.FormatRelational, synth.StyleRelational, 4, 9, 6, 2)
	sb, _ := synth.Custom("B", schema.FormatXML, synth.StyleXML, 4, 9, 6, 5)
	// C and D cover A's and B's concepts under the same naming seed:
	// about two thirds of A×B's name-shape pairs also occur in C×D.
	oa, _ := synth.Custom("C", schema.FormatRelational, synth.StyleRelational, 4, 12, 6, 0)
	ob, _ := synth.Custom("D", schema.FormatXML, synth.StyleXML, 4, 12, 6, 3)

	modes := []struct {
		name   string
		opts   []Option
		sparse bool
	}{
		{"dense", nil, false},
		// The custom schemata are far below DefaultSparseCutoff; a small
		// budget and cutoff make sparse scoring engage.
		{"sparse", []Option{WithSparse(8), WithSparseCutoff(1)}, true},
	}
	for _, mode := range modes {
		opts := append([]Option{WithPropagation(0, 0)}, mode.opts...)
		want := PresetHarmony().WithOptions(opts...).Match(sa, sb)
		if _, isSparse := want.Matrix.(*SparseMatrix); isSparse != mode.sparse {
			t.Fatalf("%s: reference matrix is %T", mode.name, want.Matrix)
		}
		cached := PresetHarmony().WithOptions(append(opts, WithProfileCache(NewProfileCache(8)))...)
		cached.Match(oa, ob).Release()
		for _, pass := range []string{"cold", "warm"} {
			t.Run(mode.name+"/"+pass, func(t *testing.T) {
				got := cached.Match(sa, sb)
				defer got.Release()
				if got.Matrix.Pairs() != want.Matrix.Pairs() {
					t.Fatalf("%d scored pairs through cache, %d without", got.Matrix.Pairs(), want.Matrix.Pairs())
				}
				for i := 0; i < sa.Len(); i++ {
					for j := 0; j < sb.Len(); j++ {
						g, w := got.Matrix.At(i, j), want.Matrix.At(i, j)
						if math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("score (%d,%d) = %v through cache, %v without", i, j, g, w)
						}
					}
					got.Matrix.ForRow(i, func(j int, g float64) bool {
						if d := explainScore(cached, got.Src, got.Dst, i, j); math.Float64bits(g) != math.Float64bits(d) {
							t.Fatalf("score (%d,%d) = %v through cache, %v from direct votes", i, j, g, d)
						}
						return true
					})
				}
			})
		}
		if st := cached.profiles.Stats(); st.Hits == 0 {
			t.Errorf("%s: warm pass never hit the profile cache: %+v", mode.name, st)
		}
		want.Release()
	}
}

// explainScore merges the memo-free votes Explain reports for one pair.
func explainScore(e *Engine, sv, dv *SchemaView, i, j int) float64 {
	records := e.Explain(sv, dv, i, j)
	votes := make([]Vote, len(records))
	weights := make([]float64, len(records))
	for k, r := range records {
		votes[k] = r.Vote
		weights[k] = r.Weight
	}
	return e.Merger().Merge(votes, weights)
}

func TestProfileCacheLRUEvictionAndInvalidation(t *testing.T) {
	pc := NewProfileCache(2)
	mk := func(name string, seed int) *schema.Schema {
		s, _ := synth.Custom(name, schema.FormatRelational, synth.StyleRelational, 2, 5, 4, seed)
		return s
	}
	s1, s2, s3 := mk("S1", 1), mk("S2", 2), mk("S3", 3)

	p1 := pc.Profile(s1)
	pc.Profile(s2)
	if got := pc.Profile(s1); got != p1 {
		t.Error("second Profile call should return the cached pointer")
	}
	// s1 was just touched, so inserting s3 must evict s2 (LRU).
	pc.Profile(s3)
	if _, ok := pc.Get(s2.Fingerprint()); ok {
		t.Error("s2 should have been evicted as least recently used")
	}
	if _, ok := pc.Get(s1.Fingerprint()); !ok {
		t.Error("s1 should have survived the eviction")
	}

	if !pc.InvalidateFingerprint(s1.Fingerprint()) {
		t.Error("invalidating a cached fingerprint should report true")
	}
	if pc.InvalidateFingerprint(s1.Fingerprint()) {
		t.Error("invalidating a missing fingerprint should report false")
	}
	if _, ok := pc.Get(s1.Fingerprint()); ok {
		t.Error("invalidated profile still served")
	}

	st := pc.Stats()
	if st.Evictions == 0 || st.Invalidations != 1 || st.Capacity != 2 {
		t.Errorf("stats = %+v, want >=1 eviction, 1 invalidation, capacity 2", st)
	}
}
