// Command hrdm-server serves one historical database to many
// concurrent TCP clients with a line-oriented JSON protocol: one
// request object per line, one response per line (see docs/SERVER.md
// for the protocol spec, session semantics, error codes and drain
// behavior).
//
// Usage:
//
//	hrdm-server                          # demo database on 127.0.0.1:7373
//	hrdm-server -addr :0                 # ephemeral port (printed on stdout)
//	hrdm-server -open DIR                # durable write-ahead-logged store
//	hrdm-server -db path.hrdm            # store saved with the CLI's \save
//	hrdm-server -max-conns 64 -max-inflight 16 -query-deadline 30s
//
// Every connection gets its own session (snapshot-isolated reads, one
// staged write group) over the shared store and plan cache.
// SIGTERM/SIGINT drains gracefully: accepting
// stops, in-flight queries finish within -drain-timeout, and a durable
// store is checkpointed before exit so restart replays an empty log.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7373", "listen address (use :0 for an ephemeral port)")
	dbPath := flag.String("db", "", "serve a saved store instead of the demo database")
	openDir := flag.String("open", "", "serve a durable (write-ahead-logged) store directory")
	maxConns := flag.Int("max-conns", 64, "max concurrent connections")
	maxInflight := flag.Int("max-inflight", 16, "max concurrently executing queries")
	queryDeadline := flag.Duration("query-deadline", 30*time.Second, "per-query deadline (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "grace for in-flight queries on shutdown")
	workers := flag.Int("workers", 0, "parallel degree for query execution (0 = number of CPUs)")
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "invalid value %d for flag -workers: must be 0 (number of CPUs) or more\n", *workers)
		flag.Usage()
		os.Exit(2)
	}

	var st *storage.Store
	switch {
	case *openDir != "":
		opened, stats, err := storage.OpenDurable(*openDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hrdm-server:", err)
			os.Exit(1)
		}
		st = opened
		if stats.Recovered() {
			fmt.Printf("recovered: replayed %d write groups (%d tuples) past snapshot LSN %d; discarded %d torn log bytes\n",
				stats.ReplayedGroups, stats.ReplayedTuples, stats.SnapshotLSN, stats.TornBytes)
		}
	case *dbPath != "":
		loaded, err := storage.Load(*dbPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hrdm-server:", err)
			os.Exit(1)
		}
		st = loaded
	default:
		st = workload.Demo()
	}

	db := engine.OpenDBOptions(st, engine.DBOptions{Workers: *workers})
	srv := server.New(db, server.Config{
		Addr:          *addr,
		MaxConns:      *maxConns,
		MaxInflight:   *maxInflight,
		QueryDeadline: *queryDeadline,
		DrainTimeout:  *drainTimeout,
	})
	// Install the handler before the listening line is printed: a
	// supervisor that signals the instant it sees the line must get a
	// drain, not the default-action kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "hrdm-server:", err)
		os.Exit(1)
	}
	// The listening line is machine-read by smoke scripts (and humans);
	// keep the "listening on " prefix stable.
	fmt.Printf("listening on %s (%d relations, max-conns=%d, max-inflight=%d)\n",
		srv.Addr(), len(st.Names()), *maxConns, *maxInflight)

	got := <-sig
	fmt.Printf("received %s, draining\n", got)
	if err := srv.Shutdown(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "hrdm-server: drain:", err)
		db.Close()
		os.Exit(1)
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "hrdm-server: close:", err)
		os.Exit(1)
	}
	fmt.Println("drained cleanly")
}
