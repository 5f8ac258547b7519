package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one hullserver process started by the benchmark.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // "http://127.0.0.1:port"
	started time.Time
	done    chan struct{} // closed once the process has been reaped
	waitErr error
	log     *os.File
}

// freeAddr picks a loopback port nobody is listening on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer execs bin with -addr set to a free loopback port followed
// by args; the server's log goes to logPath (appended).
func startServer(bin string, args []string, logPath string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even when the
	// benchmark itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: logf}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		p.waitErr = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// readyPoll is the pause between /readyz polls: short next to a
// set-up of about 10 ms, so the poll's granularity does not set setup_s.
const readyPoll = 200 * time.Microsecond

// waitReady polls GET /readyz until it answers 200 and returns the time
// since exec. It fails if the process exits or timeout passes first.
func (p *serverProc) waitReady(timeout time.Duration) (time.Duration, error) {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	defer hc.CloseIdleConnections()
	deadline := p.started.Add(timeout)
	for {
		select {
		case <-p.done:
			return 0, fmt.Errorf("hullserver exited before ready: %v", p.waitErr)
		default:
		}
		resp, err := hc.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(p.started), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("hullserver not ready after %v", timeout)
		}
		time.Sleep(readyPoll)
	}
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM).
func (p *serverProc) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("VmHWM not found")
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat's
// CPU times; Linux fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// cpuTimes is the CPU time a process and all its threads have spent
// so far, in user mode and in the kernel on its behalf. Time the
// hypervisor stole from the machine is in neither.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

// cpuTime reads the process's CPU times.
func (p *serverProc) cpuTime() (cpuTimes, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return cpuTimes{}, err
	}
	return statCPU(b)
}

// statCPU parses utime and stime (fields 14 and 15) out of a
// /proc/<pid>/stat line.
func statCPU(b []byte) (cpuTimes, error) {
	// The command name (field 2) may hold spaces and parentheses; the
	// fields after its closing parenthesis do not.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return cpuTimes{}, errors.New("parsing /proc/<pid>/stat: no command name")
	}
	f := strings.Fields(string(b[i+1:])) // f[0] is field 3
	if len(f) < 13 {
		return cpuTimes{}, fmt.Errorf("parsing /proc/<pid>/stat: %d fields", len(f)+2)
	}
	var ticks [2]int64
	for k, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("parsing /proc/<pid>/stat: %w", err)
		}
		ticks[k] = v
	}
	tick := time.Second / clockTicks
	return cpuTimes{user: time.Duration(ticks[0]) * tick, sys: time.Duration(ticks[1]) * tick}, nil
}

// kill sends SIGKILL and waits until the process is gone.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
}

// stop asks for a graceful shutdown (SIGTERM) and waits for it, falling
// back to SIGKILL after grace.
func (p *serverProc) stop(grace time.Duration) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(grace):
		p.kill()
	}
}
