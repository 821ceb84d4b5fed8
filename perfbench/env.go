package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is one benchmark run's surroundings: where the binaries are, a
// scratch directory inside the checkout, the measured duration, the
// seed, the tracer (nil when untraced), and every daemon started, so
// that close can stop them all.
type env struct {
	root     string
	buildDir string // <root>/.bench_build
	bin      string // built sppbench, sppd, sppgw
	work     string // per-run scratch, removed by close
	seed     uint64
	dur      time.Duration
	tr       *tracer
	ref      hostRef

	daemons []*daemon
}

func newEnv(root, name string, seed uint64, dur time.Duration, traced bool) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	e := &env{
		root:     root,
		buildDir: filepath.Join(root, ".bench_build"),
		seed:     seed,
		dur:      dur,
	}
	e.bin = filepath.Join(e.buildDir, "bin")
	for _, b := range []string{"sppbench", "sppd", "sppgw"} {
		if _, err := os.Stat(filepath.Join(e.bin, b)); err != nil {
			return nil, fmt.Errorf("missing %s binary (build with perfbench/run.sh): %w", b, err)
		}
	}
	if err := os.MkdirAll(filepath.Join(e.buildDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	e.work, err = os.MkdirTemp(filepath.Join(e.buildDir, "tmp"), name+"-")
	if err != nil {
		return nil, err
	}
	if e.ref.bin, err = os.Executable(); err != nil {
		return nil, err
	}
	if traced {
		e.tr = newTracer()
	}
	return e, nil
}

// close stops every daemon still running and removes the scratch dir.
func (e *env) close() {
	for _, d := range e.daemons {
		d.stop()
	}
	os.RemoveAll(e.work)
}

// procResult is one finished sppbench process.
type procResult struct {
	wall   time.Duration
	cpu    time.Duration // user + system CPU time, all threads
	stdout []byte
	rssMB  float64 // peak resident set size
	err    error   // start failure or non-zero exit
}

// runProc runs a program to completion, capturing stdout and its peak
// RSS from the kernel's rusage.
func runProc(bin string, args ...string) procResult {
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &out
	cmd.Stderr = &errb
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	r := procResult{wall: time.Since(start), stdout: out.Bytes()}
	if err != nil {
		r.err = fmt.Errorf("%s %v: %w: %s", filepath.Base(bin), args, err, bytes.TrimSpace(errb.Bytes()))
	}
	if cmd.ProcessState == nil {
		return r
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return r
}

// daemon is one long-running sppd or sppgw process.
type daemon struct {
	name  string
	url   string
	cmd   *exec.Cmd
	done  chan struct{}
	rssMB float64       // peak RSS, known once the process has exited
	cpuAt time.Duration // CPU time at exit, known once the process has exited
}

// startDaemon launches bin with args, logging to a file in the scratch
// directory. The process is killed if the benchmark itself dies.
func (e *env) startDaemon(name, url, bin string, args ...string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(e.work, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.bin, bin), args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{name: name, url: url, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			d.rssMB = float64(ru.Maxrss) / 1024
			d.cpuAt = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
		close(d.done)
	}()
	e.daemons = append(e.daemons, d)
	return d, nil
}

// stop drains the daemon with SIGTERM, killing it if it has not exited
// within ten seconds, and waits for it. It reports whether the daemon
// exited on its own.
func (d *daemon) stop() bool {
	select {
	case <-d.done:
		return d.cmd.ProcessState.Success()
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return d.cmd.ProcessState.Success()
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return false
	}
}

// cpu returns the CPU time the daemon's threads have run so far: the
// sum over /proc/<pid>/task/*/schedstat of the first field, nanoseconds
// on a CPU. Once the daemon has exited it is the rusage total.
func (d *daemon) cpu() (time.Duration, error) {
	select {
	case <-d.done:
		return d.cpuAt, nil
	default:
	}
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited while being read
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: empty schedstat", d.name)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: schedstat: %w", d.name, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// freeAddr returns a loopback address with a currently unused port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}
