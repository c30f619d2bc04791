package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one harmonyd process booted on loopback with a fresh store
// directory. The benchmark owns its lifetime: stop kills it and waits.
type daemon struct {
	cmd  *exec.Cmd
	base string
	dir  string
	log  *os.File
	http *http.Client
}

// daemonFlags are the only flags the benchmark sets. Everything else
// stays at the daemon's defaults, so the numbers describe the shipped
// configuration.
func daemonFlags(addr, storeDir string, extra []string) []string {
	return append([]string{"-addr", addr, "-store-dir", storeDir, "-fsync", "commit"}, extra...)
}

// freeAddr returns a loopback address with a port nobody listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		},
	}
}

// startDaemon boots harmonyd on a fresh store under workDir and returns
// once /healthz answers.
func startDaemon(bin, workDir, name string, extra []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(workDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(workDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, daemonFlags(addr, filepath.Join(dir, "store"), extra)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark itself is killed, the kernel kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting harmonyd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, dir: dir, log: logf, http: newHTTPClient()}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("harmonyd did not become healthy within 30s (see %s)", logf.Name())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the daemon, waits for it to exit and removes its store. The
// store is scratch: nothing is recovered from it, so no graceful
// shutdown (and its final snapshot) is needed.
func (d *daemon) stop() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Wait()
	}
	d.http.CloseIdleConnections()
	d.log.Close()
	os.RemoveAll(d.dir)
}

// cpuTicks is the daemon's user+system CPU time in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat line")
	}
	return u + st, nil
}

// cpuNanos is the CPU time the daemon's threads have run, in
// nanoseconds, summed from each thread's schedstat. It is far finer than
// the clock ticks of cpuTicks, so short quiet windows can be told apart
// from busy ones.
func (d *daemon) cpuNanos() (int64, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after the listing
		}
		f, _, _ := strings.Cut(string(raw), " ")
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing schedstat %q: %v", raw, err)
		}
		total += n
	}
	return total, nil
}

// Settle detection: the daemon is idle once it has used at most
// quietCPU of CPU in each of quietWindows consecutive windows of
// settleWindow.
const (
	settleWindow = 2 * time.Millisecond
	quietCPU     = 200 * time.Microsecond
	quietWindows = 150
)

// settle waits until the daemon's background work (index merge, profile
// warming and persisting) is done and returns when the final quiet streak
// began: the end of the daemon's last busy window. The set-up time it
// ends therefore excludes the benchmark's own wait, to within one
// settleWindow.
func (d *daemon) settle() (time.Time, error) {
	deadline := time.Now().Add(90 * time.Second)
	prev, err := d.cpuNanos()
	if err != nil {
		return time.Time{}, err
	}
	quiet := 0
	streak, sample := time.Now(), time.Now()
	for quiet < quietWindows {
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("harmonyd background work did not settle within 90s")
		}
		time.Sleep(settleWindow)
		cur, err := d.cpuNanos()
		if err != nil {
			return time.Time{}, err
		}
		// A thread that exited takes its time with it; such a window
		// is not counted as quiet.
		if used := cur - prev; used >= 0 && used <= int64(quietCPU) {
			if quiet == 0 {
				streak = sample
			}
			quiet++
		} else {
			quiet = 0
		}
		prev, sample = cur, time.Now()
	}
	return streak, nil
}

// peakRSSMB reads the daemon's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// do sends one request and reads the whole response; the returned
// duration runs from send to the last body byte.
func (d *daemon) do(method, path, ctype string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	t0 := time.Now()
	resp, err := d.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	el := time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, out, el, err
}

// getJSON fetches a JSON endpoint into v.
func (d *daemon) getJSON(path string, v any) error {
	code, body, _, err := d.do("GET", path, "", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// bulkAck is one line of the bulk-ingest response stream: a batch ack,
// or the final summary (Done set, or Error on a failed stream).
type bulkAck struct {
	Batch   int    `json:"batch"`
	Lines   int    `json:"lines"`
	Added   int    `json:"added"`
	Errors  []any  `json:"errors"`
	Done    bool   `json:"done"`
	Failed  int    `json:"failed"`
	Error   string `json:"error"`
	Batches int    `json:"batches"`
}

// bulkLoad streams NDJSON lines to POST /v1/schemas/bulk as one request
// and checks every ack: each batch must admit all its lines, and the
// summary must report all n lines added and none failed.
func (d *daemon) bulkLoad(ndjson []byte, n int) error {
	code, body, _, err := d.do("POST", "/v1/schemas/bulk", "application/x-ndjson", ndjson)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("bulk ingest: status %d: %s", code, bytes.TrimSpace(body))
	}
	return checkBulkAcks(body, n)
}

func checkBulkAcks(body []byte, n int) error {
	added, summaries := 0, 0
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var a bulkAck
		if err := json.Unmarshal(line, &a); err != nil {
			return fmt.Errorf("bulk ingest: undecodable ack %q: %v", line, err)
		}
		if a.Done || a.Error != "" || a.Batches > 0 {
			summaries++
			if !a.Done || a.Failed > 0 || a.Added != n || a.Error != "" {
				return fmt.Errorf("bulk ingest summary: done=%v added=%d/%d failed=%d error=%q", a.Done, a.Added, n, a.Failed, a.Error)
			}
			continue
		}
		if a.Added != a.Lines || len(a.Errors) > 0 {
			return fmt.Errorf("bulk ingest batch %d: added %d of %d lines, %d errors", a.Batch, a.Added, a.Lines, len(a.Errors))
		}
		added += a.Added
	}
	if summaries != 1 || added != n {
		return fmt.Errorf("bulk ingest: %d schemas acked in batches, want %d (%d summaries)", added, n, summaries)
	}
	return nil
}

// window is what the benchmark measures about the daemon process and the
// machine across the load: CPU the daemon used, its peak resident set at
// the end, and the share of the machine's CPU time stolen by the host.
type window struct {
	cpuMS float64
	rssMB float64
	steal float64
}

// measure runs fn and reports the daemon's resource use across it.
func (d *daemon) measure(fn func()) (window, error) {
	var w window
	t0, err := d.cpuTicks()
	if err != nil {
		return w, err
	}
	s0, tot0, err := stealTicks()
	if err != nil {
		return w, err
	}
	fn()
	t1, err := d.cpuTicks()
	if err != nil {
		return w, err
	}
	s1, tot1, err := stealTicks()
	if err != nil {
		return w, err
	}
	w.cpuMS = float64(t1-t0) * 1000 / clockTicks
	w.steal = ratio(float64(s1-s0), float64(tot1-tot0))
	w.rssMB, err = d.peakRSSMB()
	return w, err
}

// clockTicks is USER_HZ, the unit of /proc CPU times (100 on Linux).
const clockTicks = 100

// stealTicks reads the machine-wide steal and total CPU time from
// /proc/stat.
func stealTicks() (steal, total int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat cpu line %q", line)
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}
