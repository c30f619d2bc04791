package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"harmony/internal/core"
	"harmony/internal/evolve"
	"harmony/internal/schema"
	"harmony/internal/synth"
)

// TestEvolutionInvalidatesProfileCache asserts the staleness guarantee
// from ISSUE 8: a PUT /v1/schemas version bump must drop the compiled
// profile of the retired schema content in the same sweep that clears
// the match cache, so the rematch never scores against a stale profile.
func TestEvolutionInvalidatesProfileCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	a := testSchema("billing", "invoice_id", "amount_due", "customer_ref", "due_date")
	b := testSchema("crm", "invoice_id", "amount_due", "customer_ref", "account_mgr")
	postSchema(t, ts.URL, a)
	postSchema(t, ts.URL, b)

	// A sync match compiles and caches both profiles.
	var mr matchResponse
	do(t, "POST", ts.URL+"/v1/match", matchRequest{A: "billing", B: "crm"}, http.StatusOK, &mr)

	pc := srv.Profiles()
	if pc == nil {
		t.Fatal("server has no profile cache despite default config")
	}
	oldFp := a.Fingerprint()
	if _, ok := pc.Get(oldFp); !ok {
		t.Fatal("match did not populate the profile cache with the source schema")
	}

	// Version bump: same name, changed columns.
	a2 := testSchema("billing", "invoice_id", "amount_due", "customer_ref", "settlement_date")
	rep := putSchema(t, ts.URL, a2, "?rematch=none", http.StatusOK)
	if !rep.Changed {
		t.Fatalf("PUT reported no change: %+v", rep)
	}

	if _, ok := pc.Get(oldFp); ok {
		t.Error("retired fingerprint still served from the profile cache after evolution")
	}
	if st := pc.Stats(); st.Invalidations == 0 {
		t.Errorf("profile cache recorded no invalidations: %+v", st)
	}
	// The new content compiles fresh on the next match.
	do(t, "POST", ts.URL+"/v1/match", matchRequest{A: "billing", B: "crm"}, http.StatusOK, &mr)
	if _, ok := pc.Get(a2.Fingerprint()); !ok {
		t.Error("rematch did not cache the new version's profile")
	}
}

// TestBulkIngestCompilesNoProfiles: bulk ingest admits schemata without
// compiling their match profiles, and no profile is written to the
// store. The stream is larger than the profile cache; after it, one
// match and a clean shutdown, exactly the match's two schemata have been
// compiled and the store holds no profiles/ directory.
func TestBulkIngestCompilesNoProfiles(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{StoreDir: dir, Fsync: "commit", IngestWorkers: 2})
	schemas, _, _ := synth.Collection(5, 8, 25)
	if len(schemas) <= core.DefaultProfileCacheSize {
		t.Fatalf("%d schemata do not exceed the profile cache (%d)", len(schemas), core.DefaultProfileCacheSize)
	}
	if _, summary := bulkIngest(t, ts.URL, ndjsonBody(t, schemas), "batch=50"); summary.Added != len(schemas) {
		t.Fatalf("bulk ingest added %d of %d schemata", summary.Added, len(schemas))
	}
	var mr matchResponse
	do(t, "POST", ts.URL+"/v1/match", matchRequest{A: schemas[0].Name, B: schemas[1].Name}, http.StatusOK, &mr)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Profiles().Stats(); st.Misses != 2 {
		t.Errorf("profile cache compiled %d schemata, want the match's 2: %+v", st.Misses, st)
	}
	if _, err := os.Stat(filepath.Join(dir, "profiles")); !os.IsNotExist(err) {
		t.Errorf("store has a profiles directory (stat error %v), want none", err)
	}
}

// TestRematchUsesProfileCache: the scoped re-match after a version bump
// resolves both schemata through the engine's profile cache, so
// re-matching the same counterpart a second time compiles nothing.
func TestRematchUsesProfileCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	postSchema(t, ts.URL, testSchema("billing", "invoice_id", "amount_due", "customer_ref", "due_date"))
	postSchema(t, ts.URL, testSchema("crm", "invoice_id", "amount_due", "customer_ref", "account_mgr"))
	var mr matchResponse
	do(t, "POST", ts.URL+"/v1/match", matchRequest{A: "billing", B: "crm"}, http.StatusOK, &mr)

	a2 := testSchema("billing", "invoice_id", "amount_due", "customer_ref", "settlement_date")
	putSchema(t, ts.URL, a2, "?rematch=none", http.StatusOK)
	d, ok := srv.evolveStats.take("billing")
	if !ok {
		t.Fatal("PUT parked no migration")
	}

	pc := srv.Profiles()
	rematch := func() core.ProfileCacheStats {
		t.Helper()
		if _, err := srv.rematch(context.Background(), d, &evolve.UpgradeReport{Schema: "billing"}); err != nil {
			t.Fatal(err)
		}
		return pc.Stats()
	}
	first := rematch()
	second := rematch()
	if second.Misses != first.Misses {
		t.Errorf("second rematch compiled %d profiles, want 0", second.Misses-first.Misses)
	}
	if second.Hits < first.Hits+2 {
		t.Errorf("second rematch hit the profile cache %d times, want both schemata (2)", second.Hits-first.Hits)
	}
}

// TestProfileCacheConcurrentEvolutionRace drives mixed /v1/match and
// /v1/corpus/topk traffic while schema evolution concurrently retires
// fingerprints — the race detector watches profile-cache Get/Profile
// against InvalidateFingerprint.
func TestProfileCacheConcurrentEvolutionRace(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})

	const nSchemas = 4
	names := make([]string, nSchemas)
	for i := 0; i < nSchemas; i++ {
		s, _ := synth.Custom(fmt.Sprintf("Prof%d", i), schema.FormatRelational,
			synth.StyleRelational, int64(70+i), 6, 6, i*2)
		if err := srv.Registry().AddSchema(s, "test"); err != nil {
			t.Fatal(err)
		}
		names[i] = s.Name
	}
	// The churn schema must exist before the PUT loop can bump it.
	postSchema(t, ts.URL, testSchema("churn", "order_id", "customer_name"))

	post := func(url string, body, out any) error {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
		resp, err := http.Post(url, "application/json", &buf)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}

	const goroutines = 6
	const iters = 8
	errCh := make(chan error, goroutines*iters+iters)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a := names[(g+i)%nSchemas]
				bn := names[(g+i+1)%nSchemas]
				if g%2 == 0 {
					var mr matchResponse
					if err := post(ts.URL+"/v1/match", matchRequest{A: a, B: bn}, &mr); err != nil {
						errCh <- err
						return
					}
				} else {
					var cr json.RawMessage
					if err := post(ts.URL+"/v1/corpus/match", corpusRequest{Query: a, K: 2}, &cr); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}

	// Concurrent evolution churn on one schema: each PUT alternates the
	// column set, retiring the previous fingerprint mid-traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			cols := []string{"order_id", "customer_name", fmt.Sprintf("extra_%d", i%2)}
			s := testSchema("churn", cols...)
			body, err := json.Marshal(s)
			if err != nil {
				errCh <- err
				return
			}
			req, err := http.NewRequest(http.MethodPut,
				ts.URL+"/v1/schemas/churn?rematch=none", bytes.NewReader(body))
			if err != nil {
				errCh <- err
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errCh <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
				errCh <- fmt.Errorf("PUT churn: status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	if st := srv.Profiles().Stats(); st.Hits == 0 {
		t.Errorf("mixed traffic produced no profile-cache hits: %+v", st)
	}
}
