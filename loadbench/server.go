package main

import (
	"bufio"
	"bytes"
	"context"
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
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// proc is one running cpserve process with its own data directory.
type proc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	logPath string
	exited  chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer execs cpserve with the benchmark's flags and a fresh data
// directory under workDir. It returns once the process is started; wait for
// readiness with waitReady.
func startServer(binary, workDir string, nproc, n int) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	dataDir := filepath.Join(workDir, fmt.Sprintf("data-%d", n))
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, err
	}
	logPath := filepath.Join(workDir, fmt.Sprintf("cpserve-%d.log", n))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(binary,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-parallelism", strconv.Itoa(nproc),
		"-sweep-workers", strconv.Itoa(nproc),
		"-data-dir", dataDir,
	)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting cpserve: %w", err)
	}
	p := &proc{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), dataDir: dataDir, logPath: logPath, exited: make(chan struct{})}
	liveMu.Lock()
	live[p] = true
	liveMu.Unlock()
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the benchmark stops it
		logf.Close()
		close(p.exited)
	}()
	return p, nil
}

// waitReady polls until cpserve answers GET /v1/datasets with 200 (it
// answers 503 while it opens its data directory).
func (p *proc) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("cpserve exited during start-up; log:\n%s", p.logTail())
		default:
		}
		resp, err := c.Get(p.base + "/v1/datasets")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("cpserve not ready after %v; log:\n%s", timeout, p.logTail())
}

// stop sends SIGTERM, waits for a graceful exit (SIGKILL after 10s), and
// removes the data directory.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
	liveMu.Lock()
	delete(live, p)
	liveMu.Unlock()
	_ = os.RemoveAll(p.dataDir)
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.logPath)
	if len(b) > 4000 {
		b = b[len(b)-4000:]
	}
	return string(b)
}

// post sends a JSON body and returns the status and full response body.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// fetchStats reads GET /v1/stats.
func fetchStats(c *http.Client, base string) (*serve.ServerStats, error) {
	resp, err := c.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	var st serve.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return &st, nil
}

// newClient returns a keep-alive client capped at conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// live tracks running cpserve processes so a signal can stop them all.
var (
	liveMu sync.Mutex
	live   = map[*proc]bool{}
)

func killAll() {
	liveMu.Lock()
	procs := make([]*proc, 0, len(live))
	for p := range live {
		procs = append(procs, p)
	}
	liveMu.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// cpuTicks reads the process's user+system CPU time in clock ticks
// (/proc/<pid>/stat fields 14 and 15).
func (p *proc) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", p.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", p.cmd.Process.Pid)
	}
	return utime + stime, nil
}

// stealSince is the machine's steal share of CPU time since a machineTicks
// reading.
func stealSince(total0, steal0 int64) float64 {
	total, steal := machineTicks()
	if total <= total0 {
		return 0
	}
	return float64(steal-steal0) / float64(total-total0)
}

// machineTicks reads the machine-wide CPU counters of /proc/stat; the steal
// share between two readings says how much CPU the hypervisor gave to other
// guests while the benchmark ran.
func machineTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
