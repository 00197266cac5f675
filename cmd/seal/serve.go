package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seal/internal/serve"
)

// cmdServe starts the resident analysis daemon: load once, stay hot,
// answer /infer /detect /edit /stats /metrics until interrupted.
func cmdServe(args []string) error {
	return runDaemon("serve", args, "serving on http://%s (endpoints: /infer /detect /edit /specs /stats /metrics /healthz /readyz)\n")
}

// runDaemon is the run loop `seal serve` and `seal work` share: build the
// server from flags, print the banner (a format taking the listen
// address; scripts and the coordinator scrape it), and serve until the
// listener fails or SIGINT/SIGTERM asks for a graceful shutdown.
func runDaemon(name string, args []string, banner string) error {
	srv, ln, err := setupServe(name, args)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Printf(banner, ln.Addr())
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "seal: %v: shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	}
}

// setupServe builds the server and its listener from flags — separated
// from runDaemon so tests drive a real listener without signal handling
// (a worker IS a serve daemon; name only changes the error prefix).
func setupServe(name string, args []string) (*serve.Server, net.Listener, error) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port, printed on startup)")
	target := fs.String("target", "", "source tree to keep resident (required)")
	specFile := fs.String("specs", "", "spec database to serve detections from (optional; /infer can publish one)")
	specDB := fs.String("spec-db", "", "spec store backing the spec database (mutually exclusive with -specs; enables /specs edits, each recomputing only the region group it touched)")
	compactThreshold := fs.Float64("compact-threshold", 0, "background-compact the spec store when its dead-record ratio reaches this fraction in (0, 1] (0 = never)")
	workers := fs.Int("workers", 1, "region groups computed concurrently per request (requests may override; output is identical at any count)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request wall-clock deadline (structured 503 when exceeded); 0 = none")
	maxBody := fs.Int64("max-body", 0, "request body cap in bytes; 0 = default (16 MiB)")
	lf := addLimitFlags(fs)
	cf := addCacheFlags(fs)
	fs.Parse(args)
	if err := validateFlags(fs, fs.Name(), positiveInt, "workers", "max-failures"); err != nil {
		return nil, nil, err
	}
	if err := validateFlags(fs, fs.Name(), ratio, "compact-threshold"); err != nil {
		return nil, nil, err
	}
	if *specFile != "" && *specDB != "" {
		return nil, nil, usageErr{msg: fmt.Sprintf("%s: -specs and -spec-db are mutually exclusive", fs.Name())}
	}
	if *target == "" {
		return nil, nil, usageErr{msg: fmt.Sprintf("%s: -target is required", fs.Name())}
	}
	// An unusable cache directory fails start-up here, not the first
	// request. Requests run on views of this handle (see serve.Config), so
	// the spec file's replay below counts in no request's figures.
	pc, err := cf.open()
	if err != nil {
		return nil, nil, err
	}
	// A spec store is opened by serve.New, which keeps it open.
	files, specs, err := loadInputs(*target, *specFile, "", pc)
	if err != nil {
		return nil, nil, err
	}
	srv, err := serve.New(serve.Config{
		Workers:          *workers,
		Limits:           lf.limits(),
		Cache:            pc,
		RequestTimeout:   *reqTimeout,
		MaxBodyBytes:     *maxBody,
		SpecDB:           *specDB,
		CompactThreshold: *compactThreshold,
	}, files, specs)
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return nil, nil, err
	}
	return srv, ln, nil
}
