package main

import (
	"testing"
	"time"

	"harmony/internal/synth"
)

// ledgerWorkload is a small MDR-shaped workload: 60 schemata in 4
// domains, cold and repeated pairwise matches and corpus queries.
func ledgerWorkload() (*fixture, []request) {
	schemas, labels, _ := synth.Collection(5, 4, 15)
	f := newFixture(schemas)
	f.labels = make(map[string]int)
	for i, s := range schemas {
		f.labels[s.Name] = labels[i]
	}
	var reqs []request
	for i := 0; i < 30; i++ {
		a, b := schemas[i].Name, schemas[(i+17)%len(schemas)].Name
		reqs = append(reqs, request{kind: kindMatch, a: a, b: b})
	}
	for i := 0; i < 9; i++ {
		reqs = append(reqs, request{kind: kindCorpus, query: schemas[i*6].Name})
	}
	return f, reqs
}

// replayLedger replays the workload once and returns its ledger.
func replayLedger(t *testing.T, f *fixture, reqs []request, delay map[string]time.Duration) map[string]*kindTable {
	t.Helper()
	rec := newRecorder()
	rec.delay = delay
	p, err := newReplayer(t.TempDir(), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	if err := p.bulk("setup_bulk", f.ndjson); err != nil {
		t.Fatal(err)
	}
	if err := p.replayAll(reqs); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*kindTable)
	for _, tb := range buildLedger(rec.spans, nil) {
		out[tb.Kind] = tb
	}
	return out
}

// spansPerRequest counts a layer's spans per request of one kind in a
// baseline replay, so the planted per-call delay can be sized to add 30%
// of the layer's per-request self time.
func spansPerRequest(t *testing.T, f *fixture, reqs []request, kind, layer string) float64 {
	t.Helper()
	rec := newRecorder()
	p, err := newReplayer(t.TempDir(), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	if err := p.bulk("setup_bulk", f.ndjson); err != nil {
		t.Fatal(err)
	}
	if err := p.replayAll(reqs); err != nil {
		t.Fatal(err)
	}
	calls, req := 0, make(map[int]bool)
	for _, s := range rec.spans {
		if s.Kind == kind {
			req[s.Req] = true
			if s.layer() == layer {
				calls++
			}
		}
	}
	return float64(calls) / float64(len(req))
}

// TestLedgerAttributesPlantedSlowdown plants a delay of 30% of one
// layer's self time around that layer's calls and checks that the ledger
// reports the added time against that layer and no other. Baseline and
// slowed replays alternate and each figure is the median of three, so
// machine noise between replays does not decide the outcome.
func TestLedgerAttributesPlantedSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a small workload several times")
	}
	f, reqs := ledgerWorkload()
	for _, c := range []struct{ layer, kind string }{
		{"core", kindMatchCold},
		{"corpus", kindCorpus},
	} {
		t.Run(c.layer, func(t *testing.T) {
			baseLayers := func() map[string]float64 { return replayLedger(t, f, reqs, nil)[c.kind].Layers }
			first := baseLayers()
			if first[c.layer] <= 0 {
				t.Fatalf("baseline ledger has no %s time for %s", c.layer, c.kind)
			}
			planted := 0.3 * first[c.layer]
			perCall := time.Duration(planted / spansPerRequest(t, f, reqs, c.kind, c.layer) * float64(time.Millisecond))
			base := map[string][]float64{}
			slow := map[string][]float64{}
			for i := 0; i < 3; i++ {
				b := first
				if i > 0 {
					b = baseLayers()
				}
				for l, v := range b {
					base[l] = append(base[l], v)
				}
				for l, v := range replayLedger(t, f, reqs, map[string]time.Duration{c.layer: perCall})[c.kind].Layers {
					slow[l] = append(slow[l], v)
				}
			}
			got := median(slow[c.layer]) - median(base[c.layer])
			t.Logf("%s/%s: baseline %.3f ms, planted %.3f ms, ledger delta %.3f ms",
				c.kind, c.layer, median(base[c.layer]), planted, got)
			if got < 0.5*planted || got > 1.6*planted {
				t.Errorf("ledger reports %+.3f ms on %s, planted %.3f ms", got, c.layer, planted)
			}
			for l := range slow {
				if l == c.layer {
					continue
				}
				if d := median(slow[l]) - median(base[l]); d > 0.5*planted {
					t.Errorf("planted %s delay leaked into %s: %+.3f ms (planted %.3f ms)", c.layer, l, d, planted)
				}
			}
		})
	}
}

func TestSelfTimesSubtractsChildUnion(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 0, Parent: -1, Name: "service.handler", Start: 0, End: 10 * ms},
		// two overlapping children cover [2,6); a third covers [7,8)
		{ID: 1, Parent: 0, Name: "corpus.a", Start: 2 * ms, End: 5 * ms},
		{ID: 2, Parent: 0, Name: "corpus.b", Start: 3 * ms, End: 6 * ms},
		{ID: 3, Parent: 0, Name: "core.c", Start: 7 * ms, End: 8 * ms},
		{ID: 4, Parent: 2, Name: "core.d", Start: 4 * ms, End: 5 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{5 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond, time.Millisecond, time.Millisecond}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s self = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}
