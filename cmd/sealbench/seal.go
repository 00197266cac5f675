package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the seal module root:
// the directory whose go.mod declares `module seal`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module seal\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no seal module root (go.mod with `module seal`) above the working directory")
		}
		dir = parent
	}
}

// buildSeal compiles ./cmd/seal from the source tree at root into dir.
func buildSeal(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "seal")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/seal")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build seal: %v\n%s", err, out)
	}
	return bin, nil
}

// cli runs the seal binary as child processes.
type cli struct{ bin string }

// opResult is one finished seal child.
type opResult struct {
	start  time.Time
	wall   time.Duration
	stdout []byte
	stderr []byte
	rssMB  float64
	err    error
}

// ms is the child's wall time in milliseconds, from just before its start
// to just after it was reaped.
func (r opResult) ms() float64 { return float64(r.wall.Nanoseconds()) / 1e6 }

// spawnEnv, when set, makes a sealbench process a spawner (see spawn).
//
// On Linux a child that Go starts shares its parent's memory until it
// execs, and the kernel then counts the parent's peak resident set as the
// child's: every child of a sealbench grown to 30 MB reports a Maxrss of at
// least 30 MB. So every seal child starts from a fresh copy of sealbench
// that does nothing else, and that copy, a few MB in size, reports the
// child's wall time and true peak.
const spawnEnv = "SEALBENCH_SPAWN"

// spawn runs args[0] with args[1:] on this process's standard streams,
// passing SIGTERM on to it, writes "<wall ns> <peak RSS MB>" to file
// descriptor 3 once it has exited, and returns its exit code.
func spawn(args []string) int {
	report := os.NewFile(3, "report")
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.SysProcAttr = procAttr()
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	start := time.Now()
	err := cmd.Start()
	if err == nil {
		go func() {
			for sig := range term {
				cmd.Process.Signal(sig)
			}
		}()
		err = cmd.Wait()
	}
	fmt.Fprintf(report, "%d %g\n", time.Since(start).Nanoseconds(), peakRSSMB(cmd.ProcessState))
	report.Close()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return max(1, exit.ExitCode())
	case err != nil:
		fmt.Fprintln(os.Stderr, "sealbench:", err)
		return 1
	}
	return 0
}

// spawned is a seal child running under a spawner.
type spawned struct {
	cmd    *exec.Cmd // the spawner
	report *os.File  // read end of the spawner's report pipe
}

// start starts `seal args...` in dir under a spawner, with the child's
// output going to stdout and stderr.
func (c cli) start(ctx context.Context, dir string, stdout, stderr io.Writer, args ...string) (*spawned, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, append([]string{c.bin}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), spawnEnv+"=1")
	cmd.ExtraFiles = []*os.File{pw}
	cmd.SysProcAttr = procAttr()
	cmd.Stdout, cmd.Stderr = stdout, stderr
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, err
	}
	return &spawned{cmd: cmd, report: pr}, nil
}

// wait waits for the spawner and returns the child's wall time and peak
// RSS in MB.
func (s *spawned) wait() (time.Duration, float64, error) {
	err := s.cmd.Wait()
	defer s.report.Close()
	// The report is a few bytes, so the spawner never blocked writing it.
	report, readErr := io.ReadAll(s.report)
	var ns int64
	var rssMB float64
	if _, scanErr := fmt.Sscan(string(report), &ns, &rssMB); err == nil && (readErr != nil || scanErr != nil) {
		err = fmt.Errorf("spawner report %q: %v %v", report, readErr, scanErr)
	}
	return time.Duration(ns), rssMB, err
}

// run executes `seal args...` in dir and waits for it.
func (c cli) run(ctx context.Context, dir string, args ...string) opResult {
	var stdout, stderr bytes.Buffer
	res := opResult{start: time.Now()}
	sp, err := c.start(ctx, dir, &stdout, &stderr, args...)
	if err == nil {
		res.wall, res.rssMB, err = sp.wait()
	}
	res.stdout, res.stderr = stdout.Bytes(), stderr.Bytes()
	if err != nil {
		res.err = fmt.Errorf("seal %s: %v: %s", args[0], err, lastLine(stderr.String()))
	}
	return res
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// daemon is a running `seal serve` child.
type daemon struct {
	sp      *spawned
	url     string
	done    chan struct{} // closed once the spawner has been reaped
	rssMB   float64       // the daemon's peak, once done
	waitErr error
}

// startDaemon starts `seal serve args...` in dir, reads the listen URL from
// its banner ("serving on http://ADDR (endpoints: ...)", third field), and
// waits until /readyz answers 200. On any failure the child is stopped.
func (c cli) startDaemon(ctx context.Context, dir string, args ...string) (*daemon, error) {
	outPath := filepath.Join(dir, "serve.stdout")
	out, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	defer out.Close()
	errOut, err := os.Create(filepath.Join(dir, "serve.stderr"))
	if err != nil {
		return nil, err
	}
	defer errOut.Close()
	// The daemon outlives this call; stop ends it.
	sp, err := c.start(context.Background(), dir, out, errOut, append([]string{"serve"}, args...)...)
	if err != nil {
		return nil, err
	}
	d := &daemon{sp: sp, done: make(chan struct{})}
	go func() {
		_, d.rssMB, d.waitErr = sp.wait()
		close(d.done)
	}()
	if err := d.awaitReady(ctx, outPath); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) awaitReady(ctx context.Context, outPath string) error {
	deadline := time.Now().Add(60 * time.Second)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-d.done:
			return fmt.Errorf("seal serve exited before it was ready: %v", d.waitErr)
		case <-tick.C:
		}
		if d.url == "" {
			data, _ := os.ReadFile(outPath)
			line, _, ok := strings.Cut(string(data), "\n")
			if !ok {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) < 3 || !strings.HasPrefix(fields[2], "http://") {
				return fmt.Errorf("seal serve: unexpected banner %q", line)
			}
			d.url = fields[2]
		}
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
	}
	return errors.New("seal serve: not ready within 60s")
}

// stop ends the daemon (SIGTERM, then SIGKILL after 10s), waits until it
// has been reaped, and returns its peak RSS in MB. Safe to call twice.
func (d *daemon) stop() float64 {
	select {
	case <-d.done:
	default:
		d.sp.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			d.sp.cmd.Process.Kill() // the daemon dies with its spawner
			<-d.done
		}
	}
	return d.rssMB
}
