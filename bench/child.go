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

// Server shape, the same for every workload; every other adaptserve flag
// stays at its default (ADAPT policy, greedy victim, batching on,
// synchronous GC, -durable-sync seal, volume-file fsync before every
// ack). That is the flush policy on both sides of every comparison.
const (
	userBlocks  = 65536
	shards      = 2
	bootTimeout = 30 * time.Second
)

// janitor owns everything a run leaves outside its own memory — the
// live child and the work directories — so that every exit path (return,
// panic, SIGINT, the watchdog) can clear it.
var janitor struct {
	mu    sync.Mutex
	child *child
	dirs  []string
}

func ownDir(dir string) {
	janitor.mu.Lock()
	janitor.dirs = append(janitor.dirs, dir)
	janitor.mu.Unlock()
}

// cleanupAll kills the live child, waits for it, and removes every work
// directory. Safe to call more than once and from any goroutine.
func cleanupAll() {
	janitor.mu.Lock()
	c := janitor.child
	dirs := janitor.dirs
	janitor.child, janitor.dirs = nil, nil
	janitor.mu.Unlock()
	if c != nil {
		c.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// child is one running adaptserve process.
type child struct {
	cmd      *exec.Cmd
	wireAddr string
	nbdAddr  string
	stderr   bytes.Buffer
	pidFile  string
	waitOnce sync.Once
	drained  chan struct{}
}

// serverArgs is the command line every workload's server runs with.
func serverArgs(dataDir string, nbd bool) []string {
	args := []string{
		"-addr", "127.0.0.1:0", "-telemetry", "",
		"-volumes", strconv.Itoa(volumes),
		"-user-blocks", strconv.Itoa(userBlocks),
		"-shards", strconv.Itoa(shards),
		"-data-dir", dataDir,
	}
	if nbd {
		args = append(args, "-nbd-addr", "127.0.0.1:0")
	}
	return args
}

// startChild spawns adaptserve on dataDir and returns once it printed
// its listening addresses. pidFile records the child so a later bench
// can refuse to start beside a survivor.
func startChild(bin, dataDir, pidFile string, nbd bool) (*child, error) {
	if err := refuseIfAlive(pidFile); err != nil {
		return nil, err
	}
	c := &child{pidFile: pidFile, drained: make(chan struct{})}
	c.cmd = exec.Command(bin, serverArgs(dataDir, nbd)...)
	c.cmd.Stderr = &c.stderr
	// If the bench dies without running its cleanup (SIGKILL), the
	// kernel takes the server down with it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	janitor.mu.Lock()
	janitor.child = c
	janitor.mu.Unlock()
	if err := os.WriteFile(pidFile, []byte(strconv.Itoa(c.cmd.Process.Pid)), 0o644); err != nil {
		c.kill()
		return nil, err
	}

	type addrs struct {
		wire, nbd string
		err       error
	}
	ready := make(chan addrs, 1)
	go func() {
		defer close(c.drained)
		var a addrs
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			addr := line[strings.LastIndexByte(line, ' ')+1:]
			switch {
			case strings.HasPrefix(line, "nbd: "):
				a.nbd = addr
			case strings.HasPrefix(line, "serving "):
				a.wire = addr
				ready <- a
				// Keep reading so the server never blocks on a full pipe.
				io.Copy(io.Discard, stdout)
				return
			}
		}
		a.err = errors.New("adaptserve exited before listening")
		ready <- a
	}()
	select {
	case a := <-ready:
		if a.err != nil {
			c.kill()
			return nil, fmt.Errorf("%w: %s", a.err, strings.TrimSpace(c.stderr.String()))
		}
		c.wireAddr, c.nbdAddr = a.wire, a.nbd
		return c, nil
	case <-time.After(bootTimeout):
		c.kill()
		return nil, fmt.Errorf("adaptserve not listening after %v", bootTimeout)
	}
}

// kill SIGKILLs the child and waits until it has ended.
func (c *child) kill() {
	c.waitOnce.Do(func() {
		c.cmd.Process.Kill()
		<-c.drained // Wait closes the pipe; the reader must finish first
		c.cmd.Wait()
		os.Remove(c.pidFile)
		janitor.mu.Lock()
		if janitor.child == c {
			janitor.child = nil
		}
		janitor.mu.Unlock()
	})
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// refuseIfAlive errors when pidFile names a process that is still an
// adaptserve: a survivor of a failed run would share the CPUs and skew
// every number.
func refuseIfAlive(pidFile string) error {
	b, err := os.ReadFile(pidFile)
	if err != nil {
		return nil
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		return nil
	}
	cmdline, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
	if err == nil && strings.Contains(string(cmdline), "adaptserve") {
		return fmt.Errorf("another adaptserve child of this bench is alive (pid %d, %s); kill it first", pid, pidFile)
	}
	return nil
}

// buildServer compiles cmd/adaptserve into binDir. The go build cache
// makes every call after the first cheap; it is never inside a timed
// phase.
func buildServer(benchDir, binDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(binDir, "adaptserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "adapt/cmd/adaptserve")
	cmd.Dir = benchDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build adapt/cmd/adaptserve: %w\n%s", err, out)
	}
	return bin, nil
}
