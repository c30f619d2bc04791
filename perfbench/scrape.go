package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// statsDoc is the part of GET /v1/stats the benchmark reads.
type statsDoc struct {
	Schemas   int `json:"schemas"`
	Artifacts int `json:"artifacts"`
	Cache     struct {
		Hits, Coalesced, Misses, Invalidated uint64
	} `json:"cache"`
	Evolve struct {
		Upgrades         uint64 `json:"upgrades"`
		PairsMigrated    uint64 `json:"pairsMigrated"`
		CacheInvalidated uint64 `json:"cacheInvalidated"`
	} `json:"evolve"`
	Index struct {
		TailSchemas   int    `json:"tailSchemas"`
		Merges        int    `json:"merges"`
		Searches      uint64 `json:"searches"`
		BlocksDecoded uint64 `json:"blocksDecoded"`
		BlocksSkipped uint64 `json:"blocksSkipped"`
		DocsScored    uint64 `json:"docsScored"`
	} `json:"index"`
	Profiles *struct {
		Hits, Misses uint64
	} `json:"profiles"`
	Store *struct {
		Commits       uint64 `json:"commits"`
		OpsCommitted  uint64 `json:"opsCommitted"`
		AppendedBytes uint64 `json:"appendedBytes"`
		Syncs         uint64 `json:"syncs"`
		Snapshots     uint64 `json:"snapshots"`
	} `json:"store"`
}

// promSamples parses a Prometheus text exposition into series -> value,
// the series key being the metric name with its label set as printed.
type promSamples map[string]float64

func (d *daemon) scrapeMetrics() (promSamples, error) {
	code, body, _, err := d.do("GET", "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	out := make(promSamples)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of a metric whose labels contain all of the
// given label pairs (e.g. `phase="vote"`).
func (p promSamples) sum(name string, labels ...string) float64 {
	t := 0.0
	for k, v := range p {
		base := k
		rest := ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base, rest = k[:i], k[i:]
		}
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta is after - before for one metric selection.
func delta(before, after promSamples, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}
