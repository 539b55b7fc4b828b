package main

import (
	"bufio"
	"bytes"
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
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat; it is 100 on every mainstream Linux build.
const clockTicks = 100

// daemon is one child process of the cluster.
type daemon struct {
	name   string
	url    string
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{} // closed once the process has been reaped
}

// cluster is one snapshardd router in front of two snapserved backends,
// all running as child processes on loopback at their default flags
// (only the listen addresses and the backend list are given).
type cluster struct {
	router   *daemon
	backends []*daemon
}

// all lists the daemons, router first.
func (c *cluster) all() []*daemon { return append([]*daemon{c.router}, c.backends...) }

// freeAddr reserves an ephemeral loopback port and releases it for the
// daemon that is started next.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func startDaemon(binDir, logDir, name string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("reserve port for %s: %w", name, err)
	}
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	prog := strings.TrimRight(name, "0123456789")
	cmd := exec.Command(filepath.Join(binDir, prog), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the daemon if this driver dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, url: "http://" + addr, cmd: cmd, log: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status of a stopped daemon is not interesting
		close(d.exited)
	}()
	return d, nil
}

// stop sends SIGTERM, waits for the exit (SIGKILL after a grace period)
// and closes the log.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-d.exited
	}
	d.log.Close()
}

// bootCluster starts the backends, waits until each answers /healthz,
// then starts the router over them and waits for its /healthz. A failed
// boot stops whatever it started.
func bootCluster(binDir, logDir string, probe *http.Client) (*cluster, error) {
	c := &cluster{}
	for i := 0; i < 2; i++ {
		d, err := startDaemon(binDir, logDir, fmt.Sprintf("snapserved%d", i))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.backends = append(c.backends, d)
	}
	for _, d := range c.backends {
		if err := waitHealthy(probe, d); err != nil {
			c.stop()
			return nil, err
		}
	}
	urls := []string{c.backends[0].url, c.backends[1].url}
	r, err := startDaemon(binDir, logDir, "snapshardd", "-backends", strings.Join(urls, ","))
	if err != nil {
		c.stop()
		return nil, err
	}
	c.router = r
	if err := waitHealthy(probe, r); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *cluster) stop() {
	for _, d := range c.all() {
		if d != nil {
			d.stop()
		}
	}
}

// waitHealthy polls GET /healthz every 2ms until it answers 200.
func waitHealthy(probe *http.Client, d *daemon) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited during start-up (see %s)", d.name, d.log.Name())
		default:
		}
		resp, err := probe.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s never became healthy (see %s)", d.name, d.log.Name())
}

// cpuTime is the daemon's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are space-separated, utime and stime are the
	// 14th and 15th fields overall.
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS is the daemon's VmHWM (peak resident set) in bytes.
func (d *daemon) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuTotal sums the daemons' CPU time.
func (c *cluster) cpuTotal() (time.Duration, error) {
	var sum time.Duration
	for _, d := range c.all() {
		t, err := d.cpuTime()
		if err != nil {
			return 0, fmt.Errorf("%s cpu: %w", d.name, err)
		}
		sum += t
	}
	return sum, nil
}

// rssTotal sums the daemons' peak resident sets.
func (c *cluster) rssTotal() (int64, error) {
	var sum int64
	for _, d := range c.all() {
		n, err := d.peakRSS()
		if err != nil {
			return 0, fmt.Errorf("%s rss: %w", d.name, err)
		}
		sum += n
	}
	return sum, nil
}

// series is one /metrics scrape: the value of every sample line, keyed
// by its name and label set as exposed (e.g. engine_vm_ops_total or
// engine_progcache_hits_total{tier="project"}).
type series map[string]float64

func scrape(hc *http.Client, base string) (series, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, resp.StatusCode)
	}
	out := series{}
	sc := bufio.NewScanner(resp.Body)
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
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds the series whose key starts with prefix: pass a family name
// and "{" to total its labelled series, the implicit "other" included.
func (s series) sum(prefix string) float64 {
	var total float64
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

// minus returns the per-series increase from before to s.
func (s series) minus(before series) series {
	out := series{}
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// plus sums two scrapes series by series (the backends' counters add up
// to the cluster's).
func (s series) plus(o series) series {
	out := series{}
	for k, v := range s {
		out[k] = v
	}
	for k, v := range o {
		out[k] += v
	}
	return out
}
