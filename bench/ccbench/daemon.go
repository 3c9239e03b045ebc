package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// daemon is one ccmd child process, started with default flags on a
// loopback port chosen by the kernel.
type daemon struct {
	cmd    *exec.Cmd
	exited chan error    // receives cmd.Wait's result once
	base   string        // http://127.0.0.1:PORT
	ready  time.Duration // spawn until the first /healthz 200
}

// addrWatcher is the child's stdout: it waits for the daemon's
// "serving on" line, which names the address it bound.
type addrWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf.Write(p)
	const marker = "serving on "
	s := w.buf.String()
	if i := strings.Index(s, marker); i >= 0 {
		if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
			w.addr <- strings.TrimSpace(s[i+len(marker) : i+j])
			w.sent = true
		}
	}
	return len(p), nil
}

// startDaemon spawns ccmd and waits until /healthz answers 200. The
// ready time covers process start, the server's set-up and the first
// health exchange.
func startDaemon(bin string) (*daemon, error) {
	w := &addrWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout = w
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ccmd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()

	select {
	case d.base = <-w.addr:
	case err := <-d.exited:
		return nil, fmt.Errorf("ccmd exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("ccmd did not report its address within 30 s")
	}
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, fmt.Errorf("ccmd /healthz not ready within 30 s (last error %v)", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.ready = time.Since(start)
	return d, nil
}

// kill stops the child hard and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// stop drains the daemon with SIGTERM, waits for it to exit and returns
// its resource usage. A daemon that does not exit cleanly within a
// minute is killed and reported as an error.
func (d *daemon) stop() (*syscall.Rusage, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return nil, fmt.Errorf("signal ccmd: %w", err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return nil, fmt.Errorf("ccmd exit: %w", err)
		}
	case <-time.After(time.Minute):
		d.kill()
		return nil, errors.New("ccmd did not drain within a minute")
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("no rusage for ccmd")
	}
	return ru, nil
}

// statsz fetches the daemon's /statsz document.
func (d *daemon) statsz(client *http.Client) (serve.Statsz, error) {
	var st serve.Statsz
	resp, err := client.Get(d.base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statsz: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// timeSetup spawns and stops one daemon and returns its ready time.
func timeSetup(bin string) (time.Duration, error) {
	d, err := startDaemon(bin)
	if err != nil {
		return 0, err
	}
	if _, err := d.stop(); err != nil {
		return 0, err
	}
	return d.ready, nil
}

// rssMiB converts rusage maxrss (KiB on Linux) to MiB.
func rssMiB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }

// cpuTime is user plus system time.
func cpuTime(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
