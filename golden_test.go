package harmony

// Golden bit-identity digests: FNV-64a over every stored cell of a match
// matrix (row-major; each cell contributes its column index and
// math.Float64bits of its score), and over a corpus query's top-k names
// and scores. The constants pin the engine's exact output, so a change
// that claims to be a pure refactor of the scoring path — caching tiers,
// kernels, preprocessing — must leave every digest unchanged.
//
// The digests were recorded on amd64. Other architectures (arm64, ppc64le,
// s390x) may fuse multiply-adds, which changes low-order bits, so the test
// runs only on amd64.

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"harmony/internal/core"
	"harmony/internal/corpus"
	"harmony/internal/registry"
	"harmony/internal/synth"
)

const (
	goldenCaseStudySparse = 0x3866a93d53282d2f
	goldenExpandedDense   = 0xed852bf3121e1038
	goldenCorpusTopK      = 0x0f9a58bbc891632f
)

func matrixDigest(m core.ScoreMatrix) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for r := 0; r < m.Rows(); r++ {
		m.ForRow(r, func(dst int, score float64) bool {
			binary.LittleEndian.PutUint64(buf[:8], uint64(dst))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(score))
			h.Write(buf[:])
			return true
		})
	}
	return h.Sum64()
}

func requireAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
}

// TestGoldenCaseStudySparse matches SA×SB through an engine configured
// the way harmonyd configures its own (default sparse budget plus a
// shared compiled-profile cache), twice: the second match is served from
// a warm cache and must be bit-identical to the first.
func TestGoldenCaseStudySparse(t *testing.T) {
	requireAMD64(t)
	sa, sb, _ := synth.CaseStudy(42)
	eng := core.PresetHarmony().WithOptions(
		core.WithSparse(core.DefaultSparseBudget),
		core.WithProfileCache(core.NewProfileCache(core.DefaultProfileCacheSize)),
	)
	for run := 1; run <= 2; run++ {
		res := eng.Match(sa, sb)
		if _, ok := res.Matrix.(*core.SparseMatrix); !ok {
			t.Fatalf("run %d: matrix is %T, want sparse", run, res.Matrix)
		}
		if got := matrixDigest(res.Matrix); got != goldenCaseStudySparse {
			t.Errorf("run %d: digest %#x, want %#x", run, got, uint64(goldenCaseStudySparse))
		}
	}
}

// TestGoldenExpandedDense matches the first two expanded-study schemata
// on the dense engine, cold and then warm through a profile cache.
func TestGoldenExpandedDense(t *testing.T) {
	requireAMD64(t)
	schemas, _ := synth.Expanded(42)
	a, b := schemas[0], schemas[1]
	engines := map[string]*core.Engine{
		"cacheless": core.PresetHarmony(),
		"cached":    core.PresetHarmony().WithOptions(core.WithProfileCache(core.NewProfileCache(0))),
	}
	for name, eng := range engines {
		for run := 1; run <= 2; run++ {
			res := eng.Match(a, b)
			if _, ok := res.Matrix.(*core.Matrix); !ok {
				t.Fatalf("%s run %d: matrix is %T, want dense", name, run, res.Matrix)
			}
			if got := matrixDigest(res.Matrix); got != goldenExpandedDense {
				t.Errorf("%s run %d: digest %#x, want %#x", name, run, got, uint64(goldenExpandedDense))
			}
		}
	}
}

// TestGoldenCorpusTopK runs one blocked top-5 corpus query over a
// 200-schema synthetic repository twice (the second run reuses the
// pipeline's compiled profiles) and digests the ranked names and scores.
func TestGoldenCorpusTopK(t *testing.T) {
	requireAMD64(t)
	schemas, _, _ := synth.Collection(42, 8, 25)
	reg := registry.New()
	for _, s := range schemas {
		if err := reg.AddSchema(s, "synth"); err != nil {
			t.Fatal(err)
		}
	}
	p := corpus.NewPipeline(reg, nil)
	eng := core.PresetHarmony()
	for run := 1; run <= 2; run++ {
		res, err := p.TopK(context.Background(), eng, schemas[3], corpus.Config{Candidates: 20, TopK: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) == 0 {
			t.Fatalf("run %d: no matches", run)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, m := range res.Matches {
			h.Write([]byte(m.Schema))
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(m.Score))
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != goldenCorpusTopK {
			t.Errorf("run %d: digest %#x, want %#x", run, got, uint64(goldenCorpusTopK))
		}
	}
}
