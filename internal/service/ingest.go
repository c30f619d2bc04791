package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/obs"
	"harmony/internal/registry"
	"harmony/internal/schema"
)

// Streaming bulk ingest: POST /v1/schemas/bulk accepts NDJSON — one
// schema per line in the JSON interchange format — and admits it through
// a pipeline that keeps every stage off the registry's critical path:
//
//	read lines → chunk into batches → parallel prepare (parse, stats,
//	fingerprint, journal payload, index documents) → sequential batched
//	admission (one registry lock acquisition and one WAL record per
//	batch) → ack line after the batch is durable.
//
// Acks stream back as NDJSON too, one per batch, each written only after
// the batch's journal commit returned — under fsync-per-commit an acked
// batch has been fsynced. The index's segment-merge checks are deferred
// to the end of the stream (registry.FlushIndex), so a 10k-schema load
// pays one merge decision, not ten thousand.

// defaultBulkBatch is the lines-per-batch chunk size when the request
// does not set ?batch=N. One batch is one WAL record and one ack.
const defaultBulkBatch = 256

// maxBulkBatch bounds client-requested batch sizes; a batch is buffered
// in memory and journaled as one record.
const maxBulkBatch = 4096

// maxBulkLineBytes bounds one NDJSON line — same ceiling the non-bulk
// endpoints get from MaxBytesHandler.
const maxBulkLineBytes = maxBodyBytes

// bulkLineError reports one rejected line (1-based line number within
// the request body) without failing the stream.
type bulkLineError struct {
	Line  int    `json:"line"`
	Error string `json:"error"`
}

// bulkAck is one per-batch acknowledgment line. A batch is acked only
// after its WAL commit returned, so Added schemas are durable under the
// store's fsync policy; DurableLSN is the WAL position covering them.
type bulkAck struct {
	Batch      int             `json:"batch"`
	Lines      int             `json:"lines"`
	Added      int             `json:"added"`
	DurableLSN uint64          `json:"durableLSN,omitempty"`
	Errors     []bulkLineError `json:"errors,omitempty"`
}

// bulkSummary is the stream's final NDJSON line.
type bulkSummary struct {
	Done          bool    `json:"done"`
	Batches       int     `json:"batches"`
	Lines         int     `json:"lines"`
	Added         int     `json:"added"`
	Failed        int     `json:"failed"`
	ElapsedMillis int64   `json:"elapsedMillis"`
	SchemasPerSec float64 `json:"schemasPerSec"`
	Error         string  `json:"error,omitempty"`
}

// bulkLine is one raw input line, numbered for error reporting.
type bulkLine struct {
	n    int
	data []byte
}

// bulkBatch flows through the pipeline: the reader fills lines, a
// prepare worker fills prepared/errs and closes done, the admit loop
// (handler goroutine, in sequence order) registers and acks it.
type bulkBatch struct {
	seq      int
	lines    []bulkLine
	prepared []*registry.PreparedSchema
	errs     []bulkLineError
	done     chan struct{}
}

// ingestCounters aggregates bulk-ingest activity for /v1/stats and the
// metrics samplers.
type ingestCounters struct {
	streams, lines, added, failed atomic.Uint64
	// lastRate is the most recent completed stream's schemas/sec, as
	// float64 bits.
	lastRate atomic.Uint64
}

// IngestStats is the bulk-ingest section of /v1/stats.
type IngestStats struct {
	Streams uint64 `json:"streams"`
	Lines   uint64 `json:"lines"`
	Added   uint64 `json:"added"`
	Failed  uint64 `json:"failed"`
	// LastSchemasPerSec is the admission rate of the most recently
	// completed stream.
	LastSchemasPerSec float64 `json:"lastSchemasPerSec"`
}

func (c *ingestCounters) snapshot() IngestStats {
	return IngestStats{
		Streams:           c.streams.Load(),
		Lines:             c.lines.Load(),
		Added:             c.added.Load(),
		Failed:            c.failed.Load(),
		LastSchemasPerSec: math.Float64frombits(c.lastRate.Load()),
	}
}

// handleBulkIngest is the streaming NDJSON endpoint. Query parameters:
// steward, tags (comma-separated, applied to every schema) and batch
// (lines per batch, default 256).
func (s *Server) handleBulkIngest(w http.ResponseWriter, r *http.Request) {
	batchSize := defaultBulkBatch
	if v := r.URL.Query().Get("batch"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxBulkBatch {
			writeError(w, http.StatusBadRequest, "invalid batch %q (want 1..%d)", v, maxBulkBatch)
			return
		}
		batchSize = n
	}
	steward := r.URL.Query().Get("steward")
	var tags []string
	if t := r.URL.Query().Get("tags"); t != "" {
		tags = strings.Split(t, ",")
	}

	s.ingestStats.streams.Add(1)
	// Acks stream back while the request body is still being read; on
	// HTTP/1.x the server closes an unconsumed body at the first response
	// write unless full duplex is enabled. Ignore the error: a transport
	// that cannot do it (HTTP/2) never had the problem.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	start := time.Now()

	workers := s.cfg.IngestWorkers
	work := make(chan *bulkBatch, workers)
	ordered := make(chan *bulkBatch, 2*workers)

	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for b := range work {
				s.prepareBulkBatch(b, steward, tags)
				close(b.done)
			}
		}()
	}

	// The reader chunks the body into batches and hands each to the
	// worker pool (unordered) and the admit loop (ordered) — a batch can
	// be preparing while earlier ones are being admitted and fsynced.
	readErr := make(chan error, 1)
	go func() {
		defer close(work)
		defer close(ordered)
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 64<<10), maxBulkLineBytes)
		seq, lineNo := 0, 0
		var (
			lines []bulkLine
			slab  []byte
			offs  []int
		)
		dispatch := func() {
			if len(lines) == 0 {
				return
			}
			// Lines were accumulated as offsets into the batch slab —
			// append may have moved it mid-batch, so subslices are only
			// taken now that the slab is final.
			for i := range lines {
				lo, hi := offs[i], offs[i+1]
				lines[i].data = slab[lo:hi:hi]
			}
			seq++
			b := &bulkBatch{seq: seq, lines: lines, done: make(chan struct{})}
			lines, slab, offs = nil, nil, nil
			work <- b
			ordered <- b
		}
		for sc.Scan() {
			lineNo++
			raw := sc.Bytes()
			if len(bytes.TrimSpace(raw)) == 0 {
				continue
			}
			// The scanner reuses its buffer; the line must be copied
			// before the next Scan — into one slab per batch rather than
			// one allocation per line.
			if slab == nil {
				slab = make([]byte, 0, batchSize*(len(raw)+64))
				offs = append(offs[:0], 0)
			}
			slab = append(slab, raw...)
			offs = append(offs, len(slab))
			lines = append(lines, bulkLine{n: lineNo})
			if len(lines) >= batchSize {
				dispatch()
			}
		}
		dispatch()
		readErr <- sc.Err()
	}()

	var (
		batches, lines, added, failed int
		streamErr                     error
	)
	for b := range ordered {
		<-b.done
		batches++
		lines += len(b.lines)
		if streamErr != nil || r.Context().Err() != nil {
			// Stream already failed (or the client is gone): stop
			// admitting, keep draining so the workers exit.
			continue
		}
		ack := s.admitBulkBatch(b)
		added += ack.Added
		failed += len(ack.Errors)
		for _, le := range ack.Errors {
			if strings.Contains(le.Error, registry.ErrNotJournaled.Error()) {
				// A durability failure is stream-fatal: acking further
				// batches as durable would be a lie.
				streamErr = fmt.Errorf("line %d: %s", le.Line, le.Error)
				break
			}
		}
		if err := enc.Encode(ack); err != nil {
			streamErr = err
			continue
		}
		_ = rc.Flush()
	}
	wg.Wait()
	if err := <-readErr; err != nil && streamErr == nil {
		streamErr = fmt.Errorf("reading request body: %w", err)
	}

	// One merge decision for the whole stream instead of one per batch.
	s.reg.FlushIndex()

	elapsed := time.Since(start)
	rate := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(added) / secs
	}
	s.ingestStats.lines.Add(uint64(lines))
	s.ingestStats.added.Add(uint64(added))
	s.ingestStats.failed.Add(uint64(failed))
	s.ingestStats.lastRate.Store(math.Float64bits(rate))
	if s.ingestStreamSec != nil {
		s.ingestStreamSec.Observe(elapsed.Seconds())
	}
	summary := bulkSummary{
		Done:          streamErr == nil,
		Batches:       batches,
		Lines:         lines,
		Added:         added,
		Failed:        failed,
		ElapsedMillis: elapsed.Milliseconds(),
		SchemasPerSec: rate,
	}
	if streamErr != nil {
		summary.Error = streamErr.Error()
	}
	_ = enc.Encode(summary)
	_ = rc.Flush()
}

// prepareBulkBatch runs the lock-free stage on one batch: parse each
// line and compile its admission form (stats, fingerprint, index
// documents). The NDJSON line itself becomes the journal payload — it
// already is the schema's serialized form, so the marshal AddSchema pays
// is skipped. Match profiles are not compiled here: a schema compiles
// into the profile cache the first time a match touches it. Runs on a
// worker; touches no registry state.
func (s *Server) prepareBulkBatch(b *bulkBatch, steward string, tags []string) {
	t0 := time.Now()
	b.prepared = make([]*registry.PreparedSchema, len(b.lines))
	for i, ln := range b.lines {
		sc, err := schema.ParseJSON(ln.data)
		if err != nil {
			b.errs = append(b.errs, bulkLineError{Line: ln.n, Error: err.Error()})
			continue
		}
		ps, err := s.reg.PrepareSchemaRaw(sc, ln.data, steward, tags...)
		if err != nil {
			b.errs = append(b.errs, bulkLineError{Line: ln.n, Error: err.Error()})
			continue
		}
		b.prepared[i] = ps
	}
	if s.ingestStageSec != nil {
		s.ingestStageSec.WithLabelValues("prepare").Observe(time.Since(t0).Seconds())
	}
}

// admitBulkBatch registers one prepared batch — one registry lock
// acquisition, one journal record — and shapes its ack. It returns after
// the journal commit's durability wait, so writing the ack afterwards
// preserves ack ⇒ durable.
func (s *Server) admitBulkBatch(b *bulkBatch) bulkAck {
	t0 := time.Now()
	batch := make([]*registry.PreparedSchema, 0, len(b.prepared))
	lineOf := make([]int, 0, len(b.prepared))
	for i, ps := range b.prepared {
		if ps != nil {
			batch = append(batch, ps)
			lineOf = append(lineOf, b.lines[i].n)
		}
	}
	added, errs := s.reg.AddPrepared(batch)
	ack := bulkAck{Batch: b.seq, Lines: len(b.lines), Added: added, Errors: b.errs}
	for i, err := range errs {
		if err != nil {
			ack.Errors = append(ack.Errors, bulkLineError{Line: lineOf[i], Error: err.Error()})
		}
	}
	if s.st != nil {
		ack.DurableLSN = s.st.DurableLSN()
	}
	if s.ingestStageSec != nil {
		s.ingestStageSec.WithLabelValues("admit").Observe(time.Since(t0).Seconds())
	}
	if s.ingestBatchSchemas != nil {
		s.ingestBatchSchemas.Observe(float64(added))
	}
	return ack
}

// registerIngestMetrics adds the harmony_ingest_* families; called from
// initObs.
func (s *Server) registerIngestMetrics(r *obs.Registry) {
	s.ingestBatchSchemas = r.Histogram("harmony_ingest_batch_schemas",
		"Schemas admitted per bulk-ingest batch (one registry lock, one WAL record).",
		obs.CountBuckets)
	s.ingestStageSec = r.HistogramVec("harmony_ingest_stage_seconds",
		"Bulk-ingest pipeline stage latency per batch: prepare (parallel parse + compile) or admit (registry + WAL commit).",
		obs.DefBuckets, "stage")
	s.ingestStreamSec = r.Histogram("harmony_ingest_stream_seconds",
		"Wall time of completed bulk-ingest streams.", obs.DefBuckets)
	r.CounterFunc("harmony_ingest_streams_total", "Bulk-ingest streams started.",
		func() float64 { return float64(s.ingestStats.streams.Load()) })
	r.CounterFunc("harmony_ingest_lines_total", "NDJSON lines received by bulk ingest.",
		func() float64 { return float64(s.ingestStats.lines.Load()) })
	r.CounterFunc("harmony_ingest_added_total", "Schemas admitted by bulk ingest.",
		func() float64 { return float64(s.ingestStats.added.Load()) })
	r.CounterFunc("harmony_ingest_failed_total", "Lines rejected by bulk ingest.",
		func() float64 { return float64(s.ingestStats.failed.Load()) })
	r.GaugeFunc("harmony_ingest_last_schemas_per_sec",
		"Admission rate of the most recently completed bulk-ingest stream.",
		func() float64 { return math.Float64frombits(s.ingestStats.lastRate.Load()) })
}
