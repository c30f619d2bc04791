package main

import (
	"fmt"
	"time"

	"harmony/internal/search"
	"harmony/internal/synth"
)

// runE18 measures the two-tier block-max search index at MDR scale: a
// 10k-schema synthetic repository queried schema-as-query, block-max
// pruning versus the exhaustive term-at-a-time reference. The block-max
// engine must return bit-identical top-k results (scores and order) —
// the experiment verifies that on every query before reporting the
// speedup — so the trade here is pure wall-clock, not quality. A third
// run demonstrates the scoring budget that bounds corpus-blocking tail
// latency.
func runE18(cfg config) {
	domains, perDomain, queries := 16, 625, 40
	if cfg.quick {
		domains, perDomain, queries = 8, 25, 10
	}
	schemas, _, _ := synth.Collection(cfg.seed, domains, perDomain)
	ix := search.NewIndex()
	t0 := time.Now()
	for _, s := range schemas {
		ix.Add(s)
	}
	ix.Compact()
	buildTime := time.Since(t0)
	st := ix.IndexStats()

	const k = 10
	var fastTime, exhaustTime time.Duration
	var docsScored, blocksDecoded, blocksSkipped int
	mismatches := 0
	for qi := 0; qi < queries; qi++ {
		q := schemas[(qi*len(schemas))/queries]

		start := time.Now()
		fast, info := ix.SearchSchemaInfo(q, k, 0)
		fastTime += time.Since(start)
		docsScored += info.DocsScored
		blocksDecoded += info.BlocksDecoded
		blocksSkipped += info.BlocksSkipped

		start = time.Now()
		exact := ix.SearchSchemaExhaustive(q, k)
		exhaustTime += time.Since(start)

		if len(fast) != len(exact) {
			mismatches++
			continue
		}
		for i := range fast {
			if fast[i] != exact[i] {
				mismatches++
				break
			}
		}
	}

	// Budgeted pass: cap exact scoring at a fraction of the corpus and
	// measure how often the cap actually fires and what it costs in
	// top-k agreement — the per-request blockBudget of corpus queries.
	budget := len(schemas) / 8
	var budgetTime time.Duration
	terminated, agree := 0, 0
	for qi := 0; qi < queries; qi++ {
		q := schemas[(qi*len(schemas))/queries]
		start := time.Now()
		got, info := ix.SearchSchemaInfo(q, k, budget)
		budgetTime += time.Since(start)
		if info.Terminated {
			terminated++
		}
		want := map[string]bool{}
		for _, r := range ix.SearchSchemaExhaustive(q, k) {
			want[r.Schema] = true
		}
		for _, r := range got {
			if want[r.Schema] {
				agree++
			}
		}
	}

	fmt.Printf("corpus: %d schemata, %d terms, %d postings (%.1f MB arena), built+merged in %v\n",
		st.Schemas, st.Terms, st.Postings, float64(st.ArenaBytes)/(1<<20), buildTime.Round(time.Millisecond))
	fmt.Printf("%d schema-as-query searches, top-%d:\n", queries, k)
	fmt.Printf("%-34s %12s %14s\n", "mode", "wall-clock", "docs scored")
	fmt.Printf("%-34s %12v %14d\n", "exhaustive (PR 8-style TAAT)",
		exhaustTime.Round(time.Millisecond), queries*len(schemas))
	fmt.Printf("%-34s %12v %14d  (%d blocks decoded, %d skipped)\n", "block-max",
		fastTime.Round(time.Millisecond), docsScored, blocksDecoded, blocksSkipped)
	fmt.Printf("%-34s %12v %14s  (%d/%d terminated, top-%d recall %.2f)\n",
		fmt.Sprintf("block-max, budget %d", budget), budgetTime.Round(time.Millisecond), "<= budget",
		terminated, queries, k, float64(agree)/float64(queries*k))
	fmt.Printf("speedup: %.1fx   top-%d mismatches vs exhaustive: %d (must be 0)\n",
		float64(exhaustTime)/float64(fastTime), k, mismatches)
	fmt.Println("\nexpected shape: block-max scores a small fraction of the corpus and")
	fmt.Println("skips most posting blocks without decompressing them, at bit-identical")
	fmt.Println("top-k; the budget bounds worst-case scoring with near-perfect recall")
}
