package main

import "testing"

// TestCaseStudyTruthUnderRegisteredNames checks that every pair with
// planted truth is keyed by the names the daemon registers, including the
// renamed expanded-study SA, and that no truth set is empty.
func TestCaseStudyTruthUnderRegisteredNames(t *testing.T) {
	w := genCaseStudy(1)
	// SA x SB, and the 10 pairs among the five expanded schemata, both ways.
	if got, want := len(w.fix.truth), 2*(1+10); got != want {
		t.Fatalf("%d ordered pairs with truth, want %d", got, want)
	}
	for _, r := range w.clients[0][:200] {
		set, ok := w.fix.truth[pairKey(r.a, r.b)]
		if !ok {
			continue
		}
		if len(set) == 0 {
			t.Fatalf("empty truth for %s~%s", r.a, r.b)
		}
	}
	for _, k := range []string{pairKey("SA", "SB"), pairKey("SA_X", "SC"), pairKey("SF", "SA_X")} {
		if len(w.fix.truth[k]) == 0 {
			t.Errorf("no truth under %q", k)
		}
	}
	if _, ok := w.fix.byName["SA_X"]; !ok {
		t.Error("expanded SA not registered as SA_X")
	}
}
