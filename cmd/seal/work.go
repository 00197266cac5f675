package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"seal"
	"seal/internal/coord"
	"seal/internal/obs"
	"seal/internal/spec"
)

// workBanner prefixes the worker's startup line; the coordinator spawning
// workers scrapes the listen address from it, so the format is part of
// the worker's contract.
const workBanner = "worker on http://"

// cmdWork runs one shard worker: a resident serve daemon whose primary
// endpoint is POST /shard (the full serve surface stays available — a
// worker is a daemon that happens to take coordinator-assigned slices).
// Workers sharing a -cache-dir share the artifact plane: a shard computed
// once is a replay for every worker asked for it afterwards, including a
// worker restarted after a crash.
func cmdWork(args []string) error {
	return runDaemon("work", args, workBanner+"%s (endpoints: /shard /detect /infer /edit /specs /stats /metrics /healthz /readyz)\n")
}

// parseShardAddrs parses -shard-addrs: comma-separated worker base URLs
// (http://host:port) or bare host:port entries (http assumed).
func parseShardAddrs(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	var addrs []string
	for _, e := range strings.Split(s, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			return nil, fmt.Errorf("empty address")
		}
		if strings.Contains(e, "://") {
			u, err := url.Parse(e)
			if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
				return nil, fmt.Errorf("address %q: want http://host:port", e)
			}
			addrs = append(addrs, strings.TrimRight(e, "/"))
			continue
		}
		if _, _, err := net.SplitHostPort(e); err != nil {
			return nil, fmt.Errorf("address %q: want host:port or http://host:port", e)
		}
		addrs = append(addrs, "http://"+e)
	}
	return addrs, nil
}

// shardedOptions carries cmdDetect's flags into the coordinated path.
type shardedOptions struct {
	shards  int           // worker processes to spawn (ignored when addrs set)
	addrs   []string      // pre-existing workers (remote mode)
	timeout time.Duration // per-shard dispatch deadline
	workers int           // per-worker in-process parallelism
	limits  seal.Limits
	retry   coord.RetryPolicy  // -retry-max / -retry-backoff
	probe   coord.ProbeOptions // -probe-interval
	reshard bool               // -reshard-on-loss
	rec     *obs.Recorder
	cf      *cacheFlags
}

// runShardedDetect is cmdDetect's coordinator path: resolve workers
// (spawn local ones over target unless -shard-addrs named remote ones),
// fingerprint the target's sources, dispatch, merge. files are hashed but
// never parsed here — analysis happens only in the workers.
func runShardedDetect(ctx context.Context, target string, files map[string]string, specs []*spec.Spec, so shardedOptions) (*seal.DetectResult, []obs.ShardManifest, error) {
	addrs := so.addrs
	if len(addrs) == 0 {
		spawned, stop, err := spawnWorkers(so.shards, target, so.cf)
		if err != nil {
			return nil, nil, err
		}
		defer stop()
		addrs = spawned
	}
	return coord.Detect(ctx, seal.TargetHash(files), specs, coord.Options{
		Addrs:         addrs,
		Timeout:       so.timeout,
		Workers:       so.workers,
		Limits:        so.limits,
		Retry:         so.retry,
		Probe:         so.probe,
		ReshardOnLoss: so.reshard,
		Obs:           so.rec,
	})
}

// spawnWorkers launches n `seal work` processes over the target and waits
// for each one's banner (which carries the ephemeral listen address). The
// stop function kills whatever is still running. Workers inherit the
// coordinator's cache configuration — the shared artifact plane — but
// never -cache-clear (the coordinator already applied it; racing workers
// must not re-clear underneath each other).
func spawnWorkers(n int, target string, cf *cacheFlags) ([]string, func(), error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{"work", "-addr", "127.0.0.1:0", "-target", target}
	if cf.dir != "" {
		args = append(args, "-cache-dir", cf.dir)
	}
	if cf.readOnly {
		args = append(args, "-cache-readonly")
	}
	if cf.maxBytes > 0 {
		args = append(args, "-cache-max-bytes", strconv.FormatInt(cf.maxBytes, 10))
	}
	var cmds []*exec.Cmd
	stop := func() {
		for _, c := range cmds {
			if c.Process != nil {
				c.Process.Kill()
			}
		}
		for _, c := range cmds {
			c.Wait()
		}
	}
	addrs := make([]string, n)
	type banner struct {
		i    int
		addr string
		err  error
	}
	ch := make(chan banner, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, args...)
		// SEAL_WORK_REEXEC lets a test binary recognize it is being
		// re-executed as a worker; the real binary ignores it.
		cmd.Env = append(os.Environ(), "SEAL_WORK_REEXEC=1")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			stop()
			return nil, nil, err
		}
		if err := cmd.Start(); err != nil {
			stop()
			return nil, nil, err
		}
		cmds = append(cmds, cmd)
		go func(i int, out io.ReadCloser) {
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				line := sc.Text()
				if strings.HasPrefix(line, workBanner) {
					addr := strings.TrimPrefix(line, "worker on ")
					if sp := strings.IndexByte(addr, ' '); sp >= 0 {
						addr = addr[:sp]
					}
					ch <- banner{i: i, addr: addr}
					// Keep draining so the worker never blocks on stdout.
					for sc.Scan() {
					}
					return
				}
			}
			ch <- banner{i: i, err: fmt.Errorf("worker %d exited before announcing its address", i)}
		}(i, out)
	}
	deadline := time.After(30 * time.Second)
	for got := 0; got < n; got++ {
		select {
		case b := <-ch:
			if b.err != nil {
				stop()
				return nil, nil, b.err
			}
			addrs[b.i] = b.addr
		case <-deadline:
			stop()
			return nil, nil, fmt.Errorf("timed out waiting for %d worker(s) to start", n-got)
		}
	}
	return addrs, stop, nil
}
