package main

import (
	"context"
	"errors"
	"fmt"
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

// buildDir holds everything the benchmark writes: the mdserver binary,
// per-run data directories and the span files. It sits in the checkout
// and is git-ignored.
const buildDir = ".bench_build"

// buildServer compiles cmd/mdserver from the checkout's sources.
func buildServer(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, buildDir, "mdserver")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/mdserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mdserver: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one mdserver child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	logf   *os.File
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited
}

// freePort asks the kernel for an unused loopback port. Another process
// could take it before mdserver binds; startServer then fails fast on
// the child's exit and the run is reported as failed, not retried.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns mdserver on a free loopback port with its stderr
// (it logs every request) in dir/server.log and waits until /healthz
// answers ok. Instrumentation is off: the timed numbers are the
// service's, not the registry's.
func startServer(ctx context.Context, bin, dir string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-metrics=false"}, args...)...)
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, logf: logf, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	if err := s.waitHealthy(ctx, 60*time.Second); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

func (s *server) waitHealthy(ctx context.Context, limit time.Duration) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.NewTimer(limit)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if resp, err := hc.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("mdserver exited before it was healthy: %v\n%s", s.err, s.logTail())
		case <-deadline.C:
			return fmt.Errorf("mdserver not healthy after %v\n%s", limit, s.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// alive fails once the child has exited on its own.
func (s *server) alive() error {
	select {
	case <-s.exited:
		return fmt.Errorf("mdserver exited during the run: %v\n%s", s.err, s.logTail())
	default:
		return nil
	}
}

func (s *server) logTail() string {
	data, err := os.ReadFile(s.logf.Name())
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 10 {
		lines = lines[len(lines)-10:]
	}
	return strings.Join(lines, "\n")
}

// stop asks for a graceful shutdown (drain, final checkpoint) and
// waits for the process to end.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return fmt.Errorf("mdserver had already exited: %v", s.err)
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
		if s.err != nil {
			return fmt.Errorf("mdserver shutdown: %w\n%s", s.err, s.logTail())
		}
		return nil
	case <-time.After(60 * time.Second):
		s.kill()
		return errors.New("mdserver did not stop within 60s of SIGTERM")
	}
}

// kill ends the process at once and waits for it; safe after stop.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already gone is fine
	<-s.exited
}

// cpuMillis is the child's user+system CPU time. /proc reports clock
// ticks; Linux fixes USER_HZ at 100 on every architecture Go runs on.
func (s *server) cpuMillis() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from
	// the closing parenthesis.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", data)
	}
	return float64(utime+stime) * 10, nil
}

// rssMB reads the child's resident set from /proc: the current size
// (VmRSS) and the high-water mark (VmHWM).
func (s *server) rssMB() (now, peak float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "VmRSS:":
			now, err = strconv.ParseFloat(f[1], 64)
		case "VmHWM:":
			peak, err = strconv.ParseFloat(f[1], 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if now == 0 || peak == 0 {
		return 0, 0, errors.New("no VmRSS/VmHWM in /proc status")
	}
	return now / 1024, peak / 1024, nil
}
