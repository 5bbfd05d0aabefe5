package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildJuryd compiles cmd/juryd from the repository at root into dir and
// returns the binary's path. The build is not timed.
func buildJuryd(root, dir string) (string, error) {
	bin := filepath.Join(dir, "juryd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/juryd")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("build juryd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running juryd process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr *capBuffer
	exited chan struct{} // closed once the process has been reaped
	err    error         // exit status, valid after exited closes
}

// startDaemon runs the juryd binary with args (which must listen on an
// ephemeral loopback port) and waits until it reports its address.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// The daemon dies with the benchmark even if the benchmark is killed
	// before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderr: &capBuffer{max: 8 << 10}, exited: make(chan struct{})}
	cmd.Stderr = d.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start juryd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "juryd: listening on "); ok {
				addr <- a
			}
		}
		// Wait only after stdout hit EOF, as os/exec requires.
		io.Copy(io.Discard, stdout)
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("juryd exited before listening: %v: %s", d.err, d.stderr)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("juryd did not report a listen address within 30s")
	}
}

// stop asks the daemon to shut down gracefully and waits for it to exit,
// killing it if it has not exited after 15 seconds.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
		if d.err != nil {
			return fmt.Errorf("juryd exit: %w: %s", d.err, d.stderr)
		}
		return nil
	case <-time.After(15 * time.Second):
		d.kill()
		return errors.New("juryd did not stop within 15s of SIGTERM")
	}
}

// kill stops the daemon immediately and waits for it to be reaped.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times: 100 on every
// Linux architecture Go supports.
const clockTicks = 100

// cpuTime reads the process's user plus system CPU time from
// /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 of this remainder.
	_, rest, ok := bytes.Cut(data, []byte(") "))
	f := strings.Fields(string(rest))
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// hostCPU reads the machine-wide CPU time counters of /proc/stat's first
// line: the ticks the hypervisor took from this machine while it had work
// to run (steal), and the ticks of every state together.
func hostCPU() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := strings.Fields(string(line))
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// peakRSS reads the process's resident-set high-water mark (VmHWM), in
// bytes.
func (d *daemon) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// capBuffer keeps the first max bytes written to it, for error messages.
type capBuffer struct {
	mu  sync.Mutex
	max int
	buf bytes.Buffer
}

func (b *capBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if room := b.max - b.buf.Len(); room > 0 {
		b.buf.Write(p[:min(len(p), room)])
	}
	return len(p), nil
}

func (b *capBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.TrimSpace(b.buf.String())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
