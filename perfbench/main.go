// Command perfbench is harmony's end-to-end benchmark. It builds nothing
// itself (run.sh builds harmonyd and this program), boots the real
// harmonyd on loopback with a fresh store, drives it with a closed loop
// of generated requests, checks every response and prints the metrics.
//
//	perfbench -harmonyd BIN -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the last stdout line is the end-to-end result; with
// --trace 1 the same load runs again while the daemon's own counters are
// scraped, the generated inputs are replayed in-process through each
// layer's exported functions under benchmark-recorded spans, and the last
// line carries the per-layer metrics. See README.md for the workloads and
// metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// primary maps each workload onto its headline request kind, whose
// ledger residual is reported as service.residual_ms.
var primary = map[string]string{
	"casestudy": kindMatchCold,
	"mdr-query": kindCorpus,
	"mdr-write": kindBulk,
}

var generators = map[string]func(int64) *workload{
	"casestudy": genCaseStudy,
	"mdr-query": genMDRQuery,
	"mdr-write": genMDRWrite,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	bin := flag.String("harmonyd", "", "harmonyd binary to benchmark")
	work := flag.String("work", "", "scratch directory for daemon stores and the ledger")
	wl := flag.String("workload", "", "workload: casestudy, mdr-query or mdr-write")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 10, "measured load duration")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	gen, ok := generators[*wl]
	if !ok || *bin == "" || *work == "" || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -harmonyd, -work, --workload (casestudy|mdr-query|mdr-write) and --seconds >= 1\n")
		os.Exit(2)
	}
	runDir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(runDir)

	t0 := time.Now()
	w := gen(*seed)
	logf("generated %s inputs for seed %d in %.1fs: %d schemata, %d clients",
		w.name, *seed, time.Since(t0).Seconds(), len(w.fix.schemas), len(w.clients))

	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(*bin, runDir, *work, w, *seed, *seconds)
	} else {
		res, err = plainRun(*bin, runDir, w, *seconds)
	}
	if err != nil {
		os.RemoveAll(runDir)
		fatal(err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(runDir)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// setup boots a fresh daemon, bulk-loads the fixture and waits for the
// background work the load started to finish. The returned duration is
// setup_s, from boot to the start of the daemon's final quiet streak:
// input generation and the settle wait itself are excluded. onBoot, if set, runs right
// after boot (the traced run scrapes counters there).
func setup(bin, runDir string, w *workload, i int, onBoot func(*daemon) error) (*daemon, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(bin, runDir, fmt.Sprintf("d%d", i), w.extraFlags)
	if err != nil {
		return nil, 0, err
	}
	if onBoot != nil {
		if err := onBoot(d); err != nil {
			d.stop()
			return nil, 0, err
		}
	}
	if err := d.bulkLoad(w.fix.ndjson, len(w.fix.schemas)); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("loading fixture: %w", err)
	}
	settled, err := d.settle()
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, settled.Sub(t0).Seconds(), nil
}

// plainRun is the untraced run: setups, the measured load, end-to-end
// metrics. The reference pass is timed before the first set-up, after
// each set-up (the daemon stopped, or settled after the last one) and
// after the load (the daemon stopped), so two readings bracket every
// set-up and the load.
func plainRun(bin, runDir string, w *workload, seconds int) (*result, error) {
	var setupS, setupScaled []float64
	var d *daemon
	refs := []float64{refSpeed(setupRefPasses)}
	for i := 0; i < w.setups; i++ {
		var s float64
		var err error
		d, s, err = setup(bin, runDir, w, i, nil)
		if err != nil {
			return nil, err
		}
		if i < w.setups-1 {
			d.stop()
		}
		refs = append(refs, refSpeed(setupRefPasses))
		setupS = append(setupS, s)
		setupScaled = append(setupScaled, s/slowdown(refs[i], refs[i+1]))
	}
	preLoad := refSpeed(loadRefPasses)
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	var outs []*outcome
	var before, after statsDoc
	if err := d.getJSON("/v1/stats", &before); err != nil {
		return nil, err
	}
	win, err := d.measure(func() { outs = runLoad(d, w, seconds) })
	if err != nil {
		return nil, err
	}
	if err := d.getJSON("/v1/stats", &after); err != nil {
		return nil, err
	}
	// The daemon may still be merging or persisting after the load; the
	// last reading is taken with it stopped.
	d.stop()
	stopped = true
	postLoad := refSpeed(loadRefPasses)
	rep := summarize(w, outs, setupS, win)
	rep.setupScaled = median(setupScaled)
	rep.slow = slowdown(preLoad, postLoad)
	res := rep.result()
	rep.print(w, res, before.Schemas, after.Schemas, setupS)
	fmt.Printf("  set-ups scaled to the reference speed (s): %s\n", fmtList(setupScaled))
	fmt.Printf("  reference pass (ms): set-ups %s; load %.3f %.3f; nominal %.1f\n", fmtList(refs), preLoad, postLoad, refNominalMS)
	return res, nil
}

// report is one run's end-to-end figures plus the workload properties.
type report struct {
	metrics   []namedMetric
	gated     map[string]float64
	attempted int
	failed    int
	errs      []string
	lat       map[string][]float64
	props     []namedMetric
	wall      float64
	quality   float64
	win       window
	setup     float64
	// setupScaled is the median set-up scaled to the reference speed, and
	// slow the load's slowdown against it (see slowdown).
	setupScaled float64
	slow        float64
}

type namedMetric struct {
	name    string
	value   float64
	unit    string
	samples int
}

func summarize(w *workload, outs []*outcome, setupS []float64, win window) *report {
	rep := &report{lat: make(map[string][]float64), win: win, setup: median(setupS)}
	rep.setupScaled, rep.slow = rep.setup, 1
	var first, last time.Time
	var f1s []float64
	var precHits, precTotal, bulkSchemas int
	var bulkSeconds float64
	all := newOutcome()
	for _, o := range outs {
		rep.attempted += o.attempted
		rep.failed += o.failed
		rep.errs = append(rep.errs, o.errs...)
		for k, v := range o.lat {
			rep.lat[k] = append(rep.lat[k], v...)
		}
		if first.IsZero() || o.start.Before(first) {
			first = o.start
		}
		if o.end.After(last) {
			last = o.end
		}
		f1s = append(f1s, o.f1...)
		precHits += o.precHits
		precTotal += o.precTotal
		bulkSchemas += o.bulkSchemas
		bulkSeconds += o.bulkSeconds
		all.matchKeys += o.matchKeys
		all.matchRepeats += o.matchRepeats
		all.corpusQueries += o.corpusQueries
		all.corpusReps += o.corpusReps
		all.corpusHead += o.corpusHead
		all.firstCandidates += o.firstCandidates
		for k := range o.schemata {
			all.schemata[k] = true
		}
		for k := range o.pairs {
			all.pairs[k] = true
		}
		for k := range o.keys {
			all.keys[k] = true
		}
	}
	rep.wall = last.Sub(first).Seconds()
	add := func(name string, v float64, unit string, n int) {
		rep.metrics = append(rep.metrics, namedMetric{name, v, unit, n})
	}
	done := rep.attempted - rep.failed
	add("setup_s", rep.setup, "s", len(setupS))
	add("throughput_rps", float64(done)/rep.wall, "req/s", done)
	add("error_rate", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", rep.attempted)
	for _, k := range []struct{ kind, name string }{
		{kindMatchCold, "match_cold"}, {kindMatchWarm, "match_warm"}, {kindCorpus, "corpus"},
	} {
		if xs := rep.lat[k.kind]; len(xs) > 0 {
			add(k.name+"_p50_ms", median(xs), "ms", len(xs))
			add(k.name+"_p90_ms", quantile(xs, 0.9), "ms", len(xs))
		}
	}
	if xs := rep.lat[kindSearch]; len(xs) > 0 {
		add("search_p50_ms", median(xs), "ms", len(xs))
	}
	if xs := rep.lat[kindBulk]; len(xs) > 0 {
		add("ingest_schemas_per_s", float64(bulkSchemas)/bulkSeconds, "schemas/s", bulkSchemas)
		add("ingest_ack_p90_ms", quantile(xs, 0.9), "ms", len(xs))
	}
	if xs := rep.lat[kindPut]; len(xs) > 0 {
		add("evolve_p50_ms", median(xs), "ms", len(xs))
	}
	add("server_cpu_ms_per_req", win.cpuMS/float64(done), "ms", done)
	add("server_peak_rss_mb", win.rssMB, "MB", 1)
	if len(f1s) > 0 {
		rep.quality = mean(f1s)
		add("match_f1", rep.quality, "ratio", len(f1s))
	}
	if precTotal > 0 {
		rep.quality = float64(precHits) / float64(precTotal)
		add("corpus_domain_precision", rep.quality, "ratio", precTotal)
	}

	prop := func(name string, v float64, unit string) {
		rep.props = append(rep.props, namedMetric{name: name, value: v, unit: unit})
	}
	if all.matchKeys > 0 {
		prop("match_exact_repeat_share", ratio(float64(all.matchRepeats), float64(all.matchKeys)), "ratio")
	}
	if all.corpusQueries > 0 {
		prop("corpus_exact_repeat_share", ratio(float64(all.corpusReps), float64(all.corpusQueries)), "ratio")
		prop("zipf_head_share", ratio(float64(all.corpusHead), float64(all.corpusQueries)), "ratio")
	}
	prop("cpu_steal_share", win.steal, "ratio (host CPU time stolen from this machine during the load)")
	prop("distinct_schemata_touched", float64(len(all.schemata)), "count (profile cache 128)")
	prop("distinct_outcome_keys", float64(len(all.keys)+all.firstCandidates), "count (match cache 256)")
	prop("distinct_pairs", float64(len(all.pairs)+all.firstCandidates), "count (pair cache 8)")
	if bulkSchemas > 0 {
		prop("schemata_ingested", float64(bulkSchemas), "count")
	}
	return rep
}

// result shapes the result line: the gated end-to-end metrics, the
// ones shared by every workload whose spread across seeds stays within
// their bounds in BENCHMARK.json (see README.md). Set-up time,
// throughput and CPU per request are scaled to the reference speed
// (refSpeed): a run on a host core slowed by other tenants reads as it
// would have on the nominal core.
func (rep *report) result() *result {
	res := &result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue),
	}
	put := func(name string, v float64, unit string) {
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	done := float64(rep.attempted - rep.failed)
	put("setup_s", rep.setupScaled, "s")
	put("throughput_rps", done/rep.wall*rep.slow, "req/s")
	put("quality", rep.quality, "ratio")
	put("server_cpu_ms_per_req", rep.win.cpuMS/done/rep.slow, "ms")
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			rep.errs = append(rep.errs, fmt.Sprintf("metric %s has no samples", name))
			put(name, 0, m.Unit)
		}
	}
	return res
}

func (rep *report) print(w *workload, res *result, schemasStart, schemasEnd int, setupS []float64) {
	fmt.Printf("workload %s: %d clients, closed loop, %d requests attempted, %d failed, %.2fs measured\n",
		w.name, len(w.clients), rep.attempted, rep.failed, rep.wall)
	fmt.Printf("  primary request kind: %s\n", primary[w.name])
	fmt.Println("end-to-end metrics (name value unit samples):")
	for _, m := range rep.metrics {
		note := ""
		if strings.HasSuffix(m.name, "_p90_ms") && m.samples < 100 {
			note = "  (fewer than 10 samples beyond p90)"
		}
		fmt.Printf("  %-26s %12.4f %-10s n=%d%s\n", m.name, m.value, m.unit, m.samples, note)
	}
	fmt.Printf("  setup runs (s): %s\n", fmtList(setupS))
	fmt.Printf("gated metrics (the result line; timings scaled to the reference speed, the load ran at %.3fx nominal):\n", 1/rep.slow)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-26s %12.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Println("workload properties:")
	for _, p := range rep.props {
		fmt.Printf("  %-26s %12.4f %s\n", p.name, p.value, p.unit)
	}
	fmt.Printf("  %-26s %12d count\n  %-26s %12d count\n", "corpus_size_start", schemasStart, "corpus_size_end", schemasEnd)
	kinds := make([]string, 0, len(rep.lat))
	for k := range rep.lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Println("samples per request kind:")
	for _, k := range kinds {
		fmt.Printf("  %-14s %d\n", k, len(rep.lat[k]))
	}
	for _, e := range rep.errs {
		fmt.Printf("  FAILED: %s\n", e)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
