package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// repoRoot finds the kgaq checkout the benchmark builds kgaqd from: the
// working directory (run.sh starts the benchmark there) or its nearest
// parent (the test runs in benchmark/) holding BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory: run from the kgaq checkout")
		}
		dir = parent
	}
}

// buildKgaqd compiles cmd/kgaqd into outDir/bin. Not part of any metric.
func buildKgaqd(root, outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(outDir, "bin", "kgaqd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/kgaqd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/kgaqd: %v\n%s", err, out)
	}
	return bin, nil
}

// proc is one kgaqd child.
type proc struct {
	cmd    *exec.Cmd
	addr   string // host:port
	args   []string
	bin    string
	waited chan struct{}
	bootMS float64 // exec → first healthz 200
}

var (
	procMu sync.Mutex
	procs  = map[*proc]struct{}{}
)

// reapAll kills every live child and waits for it; safe to call twice and
// from the signal and watchdog goroutines.
func reapAll() {
	procMu.Lock()
	live := make([]*proc, 0, len(procs))
	for p := range procs {
		live = append(live, p)
	}
	procMu.Unlock()
	for _, p := range live {
		p.kill()
	}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startKgaqd execs kgaqd on a free port and waits for healthz 200.
func startKgaqd(bin, logDir string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return startKgaqdAt(bin, logDir, addr, args...)
}

func startKgaqdAt(bin, logDir, addr string, args ...string) (*proc, error) {
	logPath := filepath.Join(logDir, "kgaqd-"+strings.ReplaceAll(addr, ":", "-")+".log")
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor

	p := &proc{addr: addr, args: args, bin: bin, waited: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stderr = logFile
	p.cmd.SysProcAttr = childAttr()
	begin := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec kgaqd: %w", err)
	}
	procMu.Lock()
	procs[p] = struct{}{}
	procMu.Unlock()
	go func() {
		_ = p.cmd.Wait() // exit status is uninteresting: children end by SIGKILL
		close(p.waited)
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := healthz(addr); err == nil {
			p.bootMS = msSince(begin)
			return p, nil
		}
		select {
		case <-p.waited:
			return nil, fmt.Errorf("kgaqd exited during boot:\n%s", tail(logPath))
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("kgaqd not healthy after 30s:\n%s", tail(logPath))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the child (the benchmark's crash injection and its normal
// shutdown alike) and waits until it is gone.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.waited
	procMu.Lock()
	delete(procs, p)
	procMu.Unlock()
}

// restart boots the same command line on the same port after a kill and
// returns the time from exec to healthz 200.
func (p *proc) restart(logDir string) (*proc, float64, error) {
	begin := time.Now()
	np, err := startKgaqdAt(p.bin, logDir, p.addr, p.args...)
	if err != nil {
		return nil, 0, err
	}
	return np, time.Since(begin).Seconds(), nil
}

func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// health is the slice of /v1/healthz the benchmark reads.
type health struct {
	Epoch      uint64 `json:"epoch"`
	DeltaNodes int    `json:"delta_nodes"`
	Cache      struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
		Bytes  int64  `json:"bytes"`
	} `json:"cache"`
	Admission struct {
		QueuedRequests uint64  `json:"queued_requests"`
		MeanQueueMS    float64 `json:"mean_queue_ms"`
		ShedQueueFull  uint64  `json:"shed_queue_full"`
		ShedRateLimit  uint64  `json:"shed_rate_limited"`
		ShedDraining   uint64  `json:"shed_draining"`
	} `json:"admission"`
	Federation struct {
		Partial uint64 `json:"partial"`
	} `json:"federation"`
}

var healthClient = &http.Client{Timeout: 2 * time.Second}

func healthz(addr string) (*health, error) {
	resp, err := healthClient.Get("http://" + addr + "/v1/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return &h, nil
}

// rssPeakMB reads the process's high-water resident set (VmHWM).
func rssPeakMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// cpuSeconds reads utime+stime of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, 12th and 13th after the name.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat times", pid)
	}
	const clockTicks = 100 // USER_HZ, fixed at 100 on Linux
	return (ut + st) / clockTicks, nil
}

// selfCPUSeconds is this process's user+system time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums the regular files directly inside dir whose name has the
// prefix.
func dirBytes(dir, prefix string) (int64, int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	var total int64
	n := 0
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
			n++
		}
	}
	return total, n
}

// environment records what a reader needs to judge the numbers.
func environment(cfg config) map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds,
		"clients":    cfg.Clients,
		"commit":     "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				env["loadavg_1m"] = v
			}
		}
	}
	return env
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
