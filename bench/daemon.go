//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"softreputation/internal/client"
)

// buildDaemon compiles the real cmd/reputationd into workDir. It runs
// before the set-up clock starts. The package is named by import path so
// that the build works from any directory inside the module.
func buildDaemon(ctx context.Context, workDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(workDir, "reputationd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "softreputation/cmd/reputationd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build reputationd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running reputationd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	pprof   string // base URL of the -pprof listener
	logPath string
	exited  chan struct{} // closed once Wait returned
	waitErr error         // valid after exited is closed
}

// freeLoopbackAddr asks the kernel for an unused loopback port. The
// port is released before the daemon binds it; nothing else on a
// benchmark host is expected to grab it in between.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon boots bin on dataDir with the flags ISSUE 11 fixes:
// adaptive admission on, everything else that touches a request at its
// default (4,096-entry report cache, -sync=false). -pprof is the one
// addition: it opens a second listener, off the request path, from which
// the daemon's runtime.MemStats can be read (see fetchMemStats). The
// caller's goroutine must stay locked to its OS thread for the daemon's
// lifetime (see Pdeathsig below), and must call stop.
func startDaemon(bin, dataDir, logPath string) (*daemon, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	pprofAddr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor after Start
	cmd := exec.Command(bin, "-pepper", pepper, "-data", dataDir, "-addr", addr, "-admission", "-pprof", pprofAddr)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// If the benchmark dies without running its clean-up (SIGKILL from
	// a driver's timeout), the kernel kills the daemon with it. The
	// signal is tied to the thread that forked, hence the thread lock.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start reputationd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, pprof: "http://" + pprofAddr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// awaitHealthy polls /healthz until the daemon answers, fails if it
// exits first, and gives up after 60 s.
func (d *daemon) awaitHealthy(ctx context.Context, api *client.API) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := api.Healthz(ctx, d.base); err == nil {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("reputationd not healthy after 60s: %v\n%s", err, d.logTail())
		}
		select {
		case <-d.exited:
			return fmt.Errorf("reputationd exited during boot: %v\n%s", d.waitErr, d.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends sig and waits for the process to end, escalating to
// SIGKILL after 15 s. It is safe to call more than once.
func (d *daemon) stop(sig syscall.Signal) {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(sig) // an already-exited process is what we want
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// logTail returns the end of the daemon's log for error messages.
func (d *daemon) logTail() string {
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return "--- reputationd log tail ---\n" + string(data)
}

// userHz is the kernel's clock-tick unit for /proc/<pid>/stat times. It
// is 100 on every Linux architecture Go supports.
const userHz = 100

// procCPU returns the user+system CPU seconds a process has consumed.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis with field 3.
	rp := bytes.LastIndexByte(data, ')')
	if rp < 0 {
		return 0, fmt.Errorf("proc: malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(string(data[rp+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc: malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(fields[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc: malformed times in /proc/%d/stat", pid)
	}
	return float64(utime+stime) / userHz, nil
}

// procSyscalls returns how many read and write system calls a process
// has made (syscr + syscw of /proc/<pid>/io): socket reads and writes,
// WAL appends and log lines.
func procSyscalls(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	total, seen := 0.0, 0
	for _, line := range strings.Split(string(data), "\n") {
		for _, key := range []string{"syscr:", "syscw:"} {
			if rest, ok := strings.CutPrefix(line, key); ok {
				n, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					return 0, fmt.Errorf("proc: %s %q: %v", key, rest, err)
				}
				total += n
				seen++
			}
		}
	}
	if seen != 2 {
		return 0, fmt.Errorf("proc: no syscr and syscw in /proc/%d/io", pid)
	}
	return total, nil
}

// procHWM returns a process's peak resident set size (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("proc: VmHWM %q: %v", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc: no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
