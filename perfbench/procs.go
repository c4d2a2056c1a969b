package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
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
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// proc is one spawned server process; done closes once it has been reaped.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{}
	addr chan string // receives the listen address a daemon logs
}

// spawn starts bin with args, logging to logPath. The child is killed if
// the benchmark dies first (Pdeathsig), and reaped by a goroutine that
// closes done.
func spawn(name, bin string, args []string, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, done: make(chan struct{}), addr: make(chan string, 1)}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout = logf
	p.cmd.Stderr = &addrSniffer{w: logf, addr: p.addr}
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		_ = p.cmd.Wait() // exit status is irrelevant: every server is killed
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// kill stops the process and waits until it has been reaped.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // fails only if it already exited
	<-p.done
}

// addrSniffer copies a daemon's log and reports the first
// "listening on http://ADDR" address it contains.
type addrSniffer struct {
	w    io.Writer
	addr chan string
	buf  []byte
	seen bool
}

func (s *addrSniffer) Write(b []byte) (int, error) {
	if !s.seen {
		s.buf = append(s.buf, b...)
		if i := bytes.Index(s.buf, []byte("listening on http://")); i >= 0 {
			rest := s.buf[i+len("listening on http://"):]
			if j := bytes.IndexAny(rest, " \n"); j >= 0 {
				s.addr <- string(rest[:j])
				s.seen, s.buf = true, nil
			}
		}
	}
	return s.w.Write(b)
}

// Deployment is the set of server processes one workload talks to.
type Deployment struct {
	procs    []*proc
	Target   string   // base URL the generator sends to
	Replicas []string // fpspingd base URLs
	router   *proc
}

// startDeployment boots the workload's servers from binDir and waits until
// the generator's target answers /healthz.
func startDeployment(ctx context.Context, binDir, logDir string, wl Workload, tag string) (d *Deployment, err error) {
	d = &Deployment{}
	defer func() {
		if err != nil {
			d.Stop()
			d = nil
		}
	}()
	replicas := 1
	if wl.Deployment == "routed" {
		replicas = 2
	}
	for i := range replicas {
		name := fmt.Sprintf("fpspingd-%d", i)
		args := append([]string{"-addr", "127.0.0.1:0"}, wl.DaemonFlags...)
		p, err := spawn(name, filepath.Join(binDir, "fpspingd"), args, filepath.Join(logDir, tag+"-"+name+".log"))
		if err != nil {
			return d, err
		}
		d.procs = append(d.procs, p)
		select {
		case addr := <-p.addr:
			d.Replicas = append(d.Replicas, "http://"+addr)
		case <-p.done:
			return d, fmt.Errorf("%s exited before listening", name)
		case <-time.After(20 * time.Second):
			return d, fmt.Errorf("%s did not report its address", name)
		case <-ctx.Done():
			return d, ctx.Err()
		}
	}
	for i, r := range d.Replicas {
		if err := waitHealthy(ctx, r, d.procs[i].done); err != nil {
			return d, err
		}
	}
	d.Target = d.Replicas[0]
	if wl.Deployment != "routed" {
		return d, nil
	}
	// The router takes a fixed port: probe a free one, and retry on the
	// rare race where another process grabs it first.
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return d, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		args := append([]string{"-addr", addr, "-replicas", strings.Join(d.Replicas, ",")}, wl.RouterFlags...)
		p, err := spawn("fpsrouter", filepath.Join(binDir, "fpsrouter"), args,
			filepath.Join(logDir, fmt.Sprintf("%s-fpsrouter-%d.log", tag, attempt)))
		if err != nil {
			return d, err
		}
		if err := waitHealthy(ctx, "http://"+addr, p.done); err != nil {
			p.kill()
			continue
		}
		d.procs = append(d.procs, p)
		d.router, d.Target = p, "http://"+addr
		return d, nil
	}
	return d, errors.New("fpsrouter did not become healthy")
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls base/healthz until it answers 200, the process exits,
// or 20 s pass.
func waitHealthy(ctx context.Context, base string, died <-chan struct{}) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		req, _ := http.NewRequestWithContext(ctx, "GET", base+"/healthz", nil)
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-died:
			return fmt.Errorf("%s: server exited", base)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s: not healthy after 20s", base)
}

// Stop kills and reaps every process of the deployment. Safe to call twice.
func (d *Deployment) Stop() {
	if d == nil {
		return
	}
	var wg sync.WaitGroup
	for _, p := range d.procs {
		wg.Add(1)
		go func() { defer wg.Done(); p.kill() }()
	}
	wg.Wait()
}

// CPU returns the user+system CPU time of the deployment's servers, or of
// the router alone.
func (d *Deployment) CPU(routerOnly bool) (time.Duration, error) {
	var total time.Duration
	for _, p := range d.procs {
		if routerOnly && p != d.router {
			continue
		}
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		ticks, err := parseStatCPU(data)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ticks) * time.Second / clockTicks
	}
	return total, nil
}

// PeakRSS returns the summed peak resident set (VmHWM) of the servers, in
// bytes.
func (d *Deployment) PeakRSS() (int64, error) {
	var total int64
	for _, p := range d.procs {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		kb, err := parseVmHWM(data)
		if err != nil {
			return 0, err
		}
		total += kb * 1024
	}
	return total, nil
}

// parseStatCPU returns utime+stime, in clock ticks, from /proc/<pid>/stat.
// The command name may hold spaces and parentheses, so fields are counted
// after its last ')'.
func parseStatCPU(data []byte) (uint64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("stat: no command name")
	}
	f := strings.Fields(string(data[i+1:]))
	// After the name: state(3) ppid(4) ... utime(14) stime(15), so utime
	// is f[11] and stime f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the name", len(f))
	}
	u, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	s, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return u + s, nil
}

// parseVmHWM returns the VmHWM line of /proc/<pid>/status in kB.
func parseVmHWM(data []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, errors.New("status: no VmHWM line")
}

// cpuTicks is the machine-wide steal and total time from /proc/stat.
type cpuTicks struct{ steal, total uint64 }

func (a cpuTicks) minus(b cpuTicks) cpuTicks { return cpuTicks{a.steal - b.steal, a.total - b.total} }

func (a cpuTicks) share() float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.steal) / float64(a.total)
}

func hostSteal() (cpuTicks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	return parseProcStat(data)
}

// parseProcStat reads the aggregate "cpu" line of /proc/stat: user nice
// system idle iowait irq softirq steal, in clock ticks.
func parseProcStat(data []byte) (cpuTicks, error) {
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, errors.New("/proc/stat: no aggregate cpu line")
	}
	var t cpuTicks
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("/proc/stat field %d: %w", i+1, err)
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}
