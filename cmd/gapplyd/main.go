// Command gapplyd serves gapplydb over the wire protocol: a TCP server
// with per-connection sessions, bounded admission of concurrent
// queries, incremental row/XML streaming, and graceful drain-then-close
// shutdown on SIGINT/SIGTERM.
//
// Usage:
//
//	gapplyd [-sf 0.01] [-addr :7744]
//	gapplyd -http :7745          # also serve /healthz, /metrics and /debug/traces
//	gapplyd -max-concurrent 8 -max-queued 16 -session-inflight 8
//	gapplyd -drain 8s            # force-cancel queries still running then
//
// On the first SIGINT/SIGTERM the server stops accepting work, drains
// in-flight queries (force-cancelling them through the engine's context
// machinery if -drain expires), closes the database, and exits 0. A
// second signal aborts immediately with exit 1.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gapplydb"
	"gapplydb/internal/server"
)

func main() {
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor to preload (0 = empty database)")
	addr := flag.String("addr", ":7744", "TCP listen address for the wire protocol")
	httpAddr := flag.String("http", "", "optional HTTP listen address for /healthz, /metrics and /debug/traces")
	maxConcurrent := flag.Int("max-concurrent", 0, "max queries executing at once (0 = GOMAXPROCS)")
	maxQueued := flag.Int("max-queued", 0, "max queries waiting for a slot before fast-reject (0 = 2x max-concurrent)")
	sessionInFlight := flag.Int("session-inflight", 0, "max concurrent queries per session (0 = 8)")
	drain := flag.Duration("drain", 8*time.Second, "graceful-shutdown drain budget before in-flight queries are force-cancelled")
	traceSampling := flag.Float64("trace-sampling", 0, "head-sample this fraction (0..1) of un-ID'd queries into the trace flight recorder; client-issued trace IDs are always traced")
	verbose := flag.Bool("v", false, "log per-connection events")
	flag.Parse()

	logger := log.New(os.Stderr, "gapplyd: ", log.LstdFlags)

	var db *gapplydb.Database
	if *sf > 0 {
		logger.Printf("loading TPC-H at scale factor %g...", *sf)
		start := time.Now()
		var err error
		db, err = gapplydb.OpenTPCH(*sf)
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("loaded in %v", time.Since(start).Round(time.Millisecond))
	} else {
		db = gapplydb.Open()
	}

	cfg := server.Config{
		MaxConcurrent:   *maxConcurrent,
		MaxQueued:       *maxQueued,
		SessionInFlight: *sessionInFlight,
		TraceSampling:   *traceSampling,
	}
	if *verbose {
		cfg.Logf = logger.Printf
	}

	srv := server.New(db, cfg)

	var httpSrv *http.Server
	if *httpAddr != "" {
		httpSrv = &http.Server{Addr: *httpAddr, Handler: srv.HTTPHandler()}
		go func() {
			logger.Printf("http listening on %s", *httpAddr)
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Printf("http: %v", err)
			}
		}()
	}

	// Shutdown on SIGINT/SIGTERM: drain with a budget, then force.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan int, 1)
	go func() {
		sig := <-sigc
		logger.Printf("received %v, draining (budget %v)...", sig, *drain)
		go func() {
			<-sigc
			logger.Printf("second signal, aborting")
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("forced shutdown: %v", err)
		}
		if httpSrv != nil {
			httpSrv.Close()
		}
		db.Close()
		logger.Printf("bye")
		done <- 0
	}()

	logger.Printf("listening on %s", *addr)
	if err := srv.ListenAndServe(*addr); err != nil {
		logger.Fatal(err)
	}
	os.Exit(<-done)
}
