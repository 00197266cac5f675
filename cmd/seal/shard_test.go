package main

// CLI tests for the scale-out tier: the sharded detect path must be
// byte-identical to the in-process path at every shard count, worker
// processes are spawned by re-executing this test binary (the TestMain
// hook below), remote mode takes pre-started workers via -shard-addrs,
// and non-positive worker/shard counts are usage errors (exit 2) with
// golden-pinned messages.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seal/internal/obs"
)

// TestMain routes re-executions of this binary into the worker
// entrypoint: `seal detect -shards N` spawns os.Executable() with
// SEAL_WORK_REEXEC=1 and `work` arguments, which in tests is this binary
// — so the spawned-worker path runs for real, process boundary included.
func TestMain(m *testing.M) {
	if os.Getenv("SEAL_WORK_REEXEC") == "1" && len(os.Args) > 1 && os.Args[1] == "work" {
		if err := cmdWork(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "seal:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCLIShardedDetectIdentity pins the scale-out determinism contract at
// the CLI surface: -shards 1, 2, and 4 (spawned worker processes, shared
// cache plane) must reproduce the in-process report byte-for-byte, and
// the run manifest must record every shard as ok.
func TestCLIShardedDetectIdentity(t *testing.T) {
	corpusDir, specFile := buildCorpus(t)
	tree := filepath.Join(corpusDir, "tree")

	single := captureStdout(t, func() error {
		return cmdDetect([]string{"-target", tree, "-specs", specFile, "-report"})
	})

	for _, shards := range []string{"1", "2", "4"} {
		manifestOut := filepath.Join(t.TempDir(), "manifest.json")
		cacheDir := t.TempDir()
		sharded := captureStdout(t, func() error {
			return cmdDetect([]string{"-target", tree, "-specs", specFile, "-report",
				"-shards", shards, "-cache-dir", cacheDir, "-manifest-out", manifestOut})
		})
		if sharded != single {
			t.Errorf("-shards %s output differs from in-process output.\nsharded:\n%s\nin-process:\n%s",
				shards, sharded, single)
		}
		data, err := os.ReadFile(manifestOut)
		if err != nil {
			t.Fatal(err)
		}
		var m obs.Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		var want int
		fmt.Sscanf(shards, "%d", &want)
		if len(m.Shards) != want {
			t.Fatalf("-shards %s manifest records %d shards", shards, len(m.Shards))
		}
		for _, sm := range m.Shards {
			if sm.Outcome != "ok" {
				t.Errorf("-shards %s manifest shard %d: outcome %q (%s)", shards, sm.Shard, sm.Outcome, sm.Reason)
			}
			if sm.Addr == "" {
				t.Errorf("-shards %s manifest shard %d: no worker address recorded", shards, sm.Shard)
			}
		}
	}
}

// TestCLIShardAddrsRemoteMode drives the remote path: workers started
// ahead of time (here in-process, via the same setupServe the work
// command uses) and handed to detect via -shard-addrs.
func TestCLIShardAddrsRemoteMode(t *testing.T) {
	corpusDir, specFile := buildCorpus(t)
	tree := filepath.Join(corpusDir, "tree")

	var addrs []string
	for i := 0; i < 2; i++ {
		srv, ln, err := setupServe("work", []string{"-target", tree})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		addrs = append(addrs, ln.Addr().String()) // bare host:port — parseShardAddrs adds the scheme
	}

	single := captureStdout(t, func() error {
		return cmdDetect([]string{"-target", tree, "-specs", specFile, "-report"})
	})
	remote := captureStdout(t, func() error {
		return cmdDetect([]string{"-target", tree, "-specs", specFile, "-report",
			"-shard-addrs", strings.Join(addrs, ",")})
	})
	if remote != single {
		t.Errorf("-shard-addrs output differs from in-process output.\nremote:\n%s\nin-process:\n%s", remote, single)
	}
}

// TestCLIFlagValidation pins the usage-error contract: explicitly-set
// non-positive -workers/-shards/-max-failures and malformed -shard-addrs
// are rejected with exit code 2 before any work starts, with the exact
// messages held by a golden file.
func TestCLIFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
	}{
		{"detect -workers 0", func() error { return cmdDetect([]string{"-workers", "0"}) }},
		{"detect -shards 0", func() error { return cmdDetect([]string{"-shards", "0"}) }},
		{"detect -shards -3", func() error { return cmdDetect([]string{"-shards", "-3"}) }},
		{"detect -max-failures 0", func() error { return cmdDetect([]string{"-max-failures", "0"}) }},
		{"detect -shard-addrs empty entry", func() error { return cmdDetect([]string{"-shard-addrs", "127.0.0.1:1,"}) }},
		{"detect -shard-addrs no port", func() error { return cmdDetect([]string{"-shard-addrs", "localhost"}) }},
		{"detect -shard-addrs bad scheme", func() error { return cmdDetect([]string{"-shard-addrs", "ftp://x:1"}) }},
		{"detect -retry-max 0", func() error { return cmdDetect([]string{"-retry-max", "0"}) }},
		{"detect -retry-max -2", func() error { return cmdDetect([]string{"-retry-max", "-2"}) }},
		{"detect -probe-interval 0", func() error { return cmdDetect([]string{"-probe-interval", "0s"}) }},
		{"detect -retry-backoff negative", func() error { return cmdDetect([]string{"-retry-backoff", "-1s"}) }},
		{"detect -reshard-on-loss without shards", func() error { return cmdDetect([]string{"-reshard-on-loss"}) }},
		{"detect without -target", func() error { return cmdDetect([]string{"-specs", "a.json"}) }},
		{"detect -spec-db without -target", func() error { return cmdDetect([]string{"-spec-db", "b.specdb"}) }},
		{"detect without specs", func() error { return cmdDetect([]string{"-target", "tree"}) }},
		{"infer -workers 0", func() error { return cmdInfer([]string{"-workers", "0"}) }},
		{"infer -max-failures -1", func() error { return cmdInfer([]string{"-max-failures", "-1"}) }},
		{"work -workers 0", func() error { _, _, err := setupServe("work", []string{"-workers", "0"}); return err }},
		{"serve -max-failures 0", func() error { _, _, err := setupServe("serve", []string{"-max-failures", "0"}); return err }},
		{"serve without -target", func() error { _, _, err := setupServe("serve", []string{"-specs", "a.json"}); return err }},
		{"work without -target", func() error { _, _, err := setupServe("work", nil); return err }},
		{"detect -specs with -spec-db", func() error { return cmdDetect([]string{"-specs", "a.json", "-spec-db", "b.specdb"}) }},
		{"serve -specs with -spec-db", func() error {
			_, _, err := setupServe("serve", []string{"-specs", "a.json", "-spec-db", "b.specdb"})
			return err
		}},
		{"specdb no mode", func() error { return cmdSpecDB([]string{"-db", "x.specdb"}) }},
		{"specdb two modes", func() error { return cmdSpecDB([]string{"-db", "x.specdb", "-compact", "-verify"}) }},
		{"specdb -commit-every 0", func() error { return cmdSpecDB([]string{"-commit-every", "0"}) }},
		{"specdb -commit-bytes -1", func() error { return cmdSpecDB([]string{"-commit-bytes", "-1"}) }},
		{"specdb -commit-interval 0", func() error { return cmdSpecDB([]string{"-commit-interval", "0s"}) }},
		{"specdb -compact-threshold 0", func() error { return cmdSpecDB([]string{"-compact-threshold", "0"}) }},
		{"specdb -compact-threshold 1.5", func() error { return cmdSpecDB([]string{"-compact-threshold", "1.5"}) }},
		{"serve -compact-threshold -0.2", func() error {
			_, _, err := setupServe("serve", []string{"-compact-threshold", "-0.2"})
			return err
		}},
	}
	var got strings.Builder
	for _, tc := range cases {
		err := tc.run()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		var ec exitCoder
		if !errors.As(err, &ec) || ec.ExitCode() != exitUsage {
			t.Errorf("%s: exit code not %d: %v", tc.name, exitUsage, err)
		}
		fmt.Fprintf(&got, "%s => %s\n", tc.name, err.Error())
	}
	checkGolden(t, "flag_errors", got.String())
}

// TestCLIShardedOmittedFlagsStayValid guards the fs.Visit contract: a
// zero default that was never set on the command line (like -max-failures
// meaning "keep going") must not trip the positivity check, so the first
// complaint is the missing -target.
func TestCLIShardedOmittedFlagsStayValid(t *testing.T) {
	err := cmdDetect([]string{"-target", "", "-specs", ""})
	if err == nil {
		t.Fatal("expected the missing-target error")
	}
	if err.Error() != "detect: -target is required" {
		t.Fatalf("omitted flags were rejected: %v", err)
	}
}
