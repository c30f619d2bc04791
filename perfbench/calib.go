package main

import (
	"crypto/sha256"
	"sort"
	"strconv"
	"time"
)

// The host this benchmark runs on is shared: the speed of a core drifts
// by a factor of two over tens of minutes as other tenants come and go,
// and the daemon's CPU time for the same requests drifts with it.
// refPass is a fixed piece of work made only of standard-library code —
// map inserts and lookups, a sort, string building, hashing — so no change
// to harmony moves it, and the time it takes measures the machine's speed
// at the moment of the run. It reuses its buffers, so after the first
// pass it allocates nothing and the benchmark's own garbage collector,
// whose cost follows the size of the generated workload, stays out of it.
type refState struct {
	keys, sorted []string
	m            map[string]int
	buf          []byte
}

func (r *refState) pass() int {
	clear(r.m)
	for i, k := range r.keys {
		r.m[k] = i
	}
	sum := 0
	for _, k := range r.keys {
		sum += r.m[k]
	}
	copy(r.sorted, r.keys)
	sort.Strings(r.sorted)
	r.buf = r.buf[:0]
	for _, k := range r.sorted {
		r.buf = append(r.buf, k...)
	}
	h := sha256.Sum256(r.buf)
	return sum + int(h[0])
}

const (
	// Passes per reading: a set-up is bracketed by short readings, the
	// load by long ones, since the machine's speed also wavers by about
	// a tenth from one second to the next.
	setupRefPasses = 101
	loadRefPasses  = 303
	// refNominalMS is the median pass time on a 2.1 GHz Xeon core of a
	// quiet 2-core VM; the gated timings are scaled to it.
	refNominalMS = 3.5
)

// refSpeed takes one reading: it times passes passes on one goroutine,
// with the daemon stopped or idle, and returns the median pass time in
// milliseconds.
func refSpeed(passes int) float64 {
	r := &refState{keys: make([]string, 20000), m: make(map[string]int, 20000)}
	for i := range r.keys {
		r.keys[i] = "element_" + strconv.Itoa(i*7919%20000)
	}
	r.sorted = make([]string, len(r.keys))
	sink := r.pass() // sizes the map and the buffer
	xs := make([]float64, passes)
	for i := range xs {
		t0 := time.Now()
		sink += r.pass()
		xs[i] = ms(time.Since(t0))
	}
	if sink == 42 {
		logf("unreachable")
	}
	return median(xs)
}

// slowdown is how many times slower than nominal the machine ran between
// two reference readings: their mean over refNominalMS.
func slowdown(before, after float64) float64 {
	return (before + after) / 2 / refNominalMS
}
