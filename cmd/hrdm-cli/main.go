// Command hrdm-cli is an interactive HQL shell over a demo historical
// database (the paper's personnel domain plus stock-market and shipment
// relations).
//
// Usage:
//
//	hrdm-cli                        # interactive shell on the demo db
//	hrdm-cli -q 'QUERY'             # run one query and exit
//	hrdm-cli -db path.hrdm          # load a store saved with \save
//
// Shell commands: \l lists relations, \d NAME shows a scheme,
// \save PATH / \load PATH persist the store in the binary format,
// \loadtext PATH / \dumptext PATH use the human-editable text format
// (see internal/storage/text.go), \merge PATH stages a text file's
// relations into the current store and publishes them as one atomic
// cross-relation write group (see docs/ARCHITECTURE.md), \open DIR
// switches to a durable store backed by a write-ahead log — every
// committed write group is fsynced before it publishes, and opening
// replays whatever a crash left in the log, printing a recovery
// banner — and \checkpoint snapshots it and truncates the log (see
// docs/DURABILITY.md; -open DIR does the same at startup), \metrics
// [json] dumps the engine metrics registry, \slowlog [N] pages the
// slow-query log, \set slowlog_ms N tunes its threshold (see
// docs/OBSERVABILITY.md), \q quits.
// EXPLAIN QUERY prints the
// physical plan the engine would run — which indexes it probes, what
// falls back to the naive operators, which side a join streams, and
// the epoch snapshot a run would pin — without executing the plan
// (lifespan parameters, including WHEN sub-queries, are still
// resolved during planning); EXPLAIN ANALYZE QUERY executes the
// plan with a per-operator profiler attached and annotates the tree
// with actual rows, wall time, self time and index lookups (see
// docs/EXPLAIN.md). Anything else is parsed as an
// HQL query; see
// internal/hql for the grammar. Queries run through the planner of
// internal/engine (lifespan interval indexes plus key and
// attribute hash indexes, and the paper's Section 5 laws where they
// pay).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hrdmerr"
	"repro/internal/storage"
	"repro/internal/workload"
)

func main() {
	query := flag.String("q", "", "run one query and exit")
	dbPath := flag.String("db", "", "load a saved store instead of the demo database")
	openDir := flag.String("open", "", "open a durable (write-ahead-logged) store directory instead of the demo database")
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
			fmt.Fprintln(os.Stderr, "hrdm-cli:", err)
			os.Exit(1)
		}
		st = opened
		if banner := recoveryBanner(stats); banner != "" {
			fmt.Println(banner)
		}
	case *dbPath != "":
		loaded, err := storage.Load(*dbPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hrdm-cli:", err)
			os.Exit(1)
		}
		st = loaded
	default:
		st = workload.Demo()
	}
	// The shell runs everything through an explicit engine.DB + Session
	// pair rather than poking the store into hql entry points directly:
	// the session threads a context through every query. \open/\load/
	// \loadtext swap the store, so the DB and session are rebuilt then;
	// the deferred close (checkpoint + WAL release for durable stores,
	// no-op otherwise) covers whatever is current at exit.
	db := engine.OpenDBOptions(st, engine.DBOptions{Workers: *workers})
	sess := db.NewSession()
	defer func() { closeDB(db) }()
	attach := func(s *storage.Store) {
		st = s
		db = engine.OpenDBOptions(s, engine.DBOptions{Workers: *workers})
		sess = db.NewSession()
	}

	if *query != "" {
		if err := runQuery(os.Stdout, sess, *query); err != nil {
			closeDB(db)
			fmt.Fprintf(os.Stderr, "hrdm-cli: error[%d]: %s\n", hrdmerr.CodeOf(err), hrdmerr.Message(err))
			os.Exit(1)
		}
		return
	}

	fmt.Println("HRDM shell — historical relational algebra (Clifford & Croker 1987)")
	fmt.Println(`relations: ` + strings.Join(st.Names(), ", ") + `   try: SELECT WHEN SAL = 30000 FROM EMP   or: EXPLAIN SELECT ...   (\q quits, \l lists)`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("hrdm> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q`, line == "quit", line == "exit":
			return
		case line == `\metrics`:
			fmt.Println(metricsReport(false))
		case line == `\metrics json`:
			fmt.Println(metricsReport(true))
		case line == `\slowlog` || strings.HasPrefix(line, `\slowlog `):
			n := 10
			if rest := strings.TrimSpace(strings.TrimPrefix(line, `\slowlog`)); rest != "" {
				v, err := strconv.Atoi(rest)
				if err != nil || v <= 0 {
					fmt.Printf("  usage: \\slowlog [N] — N a positive count, got %q\n", rest)
					continue
				}
				n = v
			}
			fmt.Println(slowlogReport(n))
		case strings.HasPrefix(line, `\set `):
			fields := strings.Fields(line[5:])
			if len(fields) != 2 {
				fmt.Println(`  usage: \set slowlog_ms N`)
				continue
			}
			msg, err := setOption(fields[0], fields[1])
			if err != nil {
				fmt.Println("  error:", err)
			} else {
				fmt.Println(" ", msg)
			}
		case line == `\l`:
			// One atomic pin across the catalog, so the listing is a
			// consistent snapshot even while writers are publishing.
			names := st.Names()
			rels := make([]*core.Relation, len(names))
			for i, n := range names {
				rels[i], _ = st.Get(n)
			}
			_, vers := core.Pin(rels...)
			for i, n := range names {
				fmt.Printf("  %s (%d tuples, lifespan %s)\n", n, vers[i].Cardinality(), core.When(vers[i].View()))
			}
		case strings.HasPrefix(line, `\d `):
			name := strings.TrimSpace(line[3:])
			if r, ok := st.Get(name); ok {
				fmt.Println(" ", r.Scheme())
			} else {
				fmt.Printf("  unknown relation %q\n", name)
			}
		case strings.HasPrefix(line, `\open `):
			dir := strings.TrimSpace(line[6:])
			opened, stats, err := storage.OpenDurable(dir)
			if err != nil {
				fmt.Println("  error:", err)
				continue
			}
			closeDB(db)
			attach(opened)
			engine.InvalidateStalePlans(st)
			if banner := recoveryBanner(stats); banner != "" {
				fmt.Println(banner)
			}
			if names := st.Names(); len(names) > 0 {
				fmt.Println("  opened durable store", dir, "—", strings.Join(names, ", "))
			} else {
				fmt.Println("  opened durable store", dir, "— empty")
			}
		case line == `\checkpoint`:
			if !st.Durable() {
				fmt.Println(`  error: current store is not durable — \open DIR first`)
				continue
			}
			if err := db.Checkpoint(); err != nil {
				fmt.Println("  error:", err)
			} else {
				fmt.Println("  checkpointed", st.Dir(), "(snapshot current, log truncated)")
			}
		case strings.HasPrefix(line, `\save `):
			path := strings.TrimSpace(line[6:])
			if err := st.Save(path); err != nil {
				fmt.Println("  error:", err)
			} else {
				fmt.Println("  saved to", path)
			}
		case strings.HasPrefix(line, `\load `):
			path := strings.TrimSpace(line[6:])
			loaded, err := storage.Load(path)
			if err != nil {
				fmt.Println("  error:", err)
			} else {
				closeDB(db)
				attach(loaded)
				// Plans pinned to swapped-out relations can never validate
				// again; drop exactly those (they would otherwise pin the
				// old store's relations in memory until LRU overflow),
				// keeping any entry whose dependencies survived the swap.
				engine.InvalidateStalePlans(st)
				fmt.Println("  loaded", strings.Join(st.Names(), ", "))
			}
		case strings.HasPrefix(line, `\loadtext `):
			path := strings.TrimSpace(line[10:])
			f, err := os.Open(path)
			if err != nil {
				fmt.Println("  error:", err)
				continue
			}
			loaded, err := storage.ParseText(f)
			f.Close()
			if err != nil {
				fmt.Println("  error:", err)
			} else {
				closeDB(db)
				attach(loaded)
				engine.InvalidateStalePlans(st)
				fmt.Println("  loaded", strings.Join(st.Names(), ", "))
			}
		case strings.HasPrefix(line, `\merge `):
			path := strings.TrimSpace(line[7:])
			f, err := os.Open(path)
			if err != nil {
				fmt.Println("  error:", err)
				continue
			}
			add, err := storage.ParseText(f)
			f.Close()
			if err != nil {
				fmt.Println("  error:", err)
				continue
			}
			// One atomic write group across every relation in the file: a
			// concurrent reader (or a failed validation) sees either the
			// whole file merged or the store exactly as it was.
			if err := st.MergeStore(add); err != nil {
				fmt.Println("  error:", err, "(store unchanged)")
			} else {
				fmt.Println("  merged", strings.Join(add.Names(), ", "), "as one write group")
			}
		case strings.HasPrefix(line, `\dumptext `):
			path := strings.TrimSpace(line[10:])
			f, err := os.Create(path)
			if err != nil {
				fmt.Println("  error:", err)
				continue
			}
			err = storage.DumpText(f, st)
			f.Close()
			if err != nil {
				fmt.Println("  error:", err)
			} else {
				fmt.Println("  dumped to", path)
			}
		default:
			if err := runQuery(os.Stdout, sess, line); err != nil {
				// Stable error line: the numeric wire code from the hrdmerr
				// taxonomy plus the unprefixed message, matching the server's
				// JSON envelope (docs/SERVER.md).
				fmt.Printf("  error[%d]: %s\n", hrdmerr.CodeOf(err), hrdmerr.Message(err))
			}
		}
	}
}

// closeDB checkpoints and releases the DB's durable store (no-op for
// the in-memory demo/loaded stores), surfacing rather than swallowing a
// failed final checkpoint.
func closeDB(db *engine.DB) {
	if db == nil {
		return
	}
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "hrdm-cli: closing durable store:", err)
	}
}

// recoveryBanner renders what OpenDurable had to redo, or "" when the
// store came up clean.
func recoveryBanner(stats storage.RecoveryStats) string {
	if !stats.Recovered() {
		return ""
	}
	return fmt.Sprintf("  recovered: replayed %d write groups (%d tuples) past snapshot LSN %d; discarded %d torn log bytes",
		stats.ReplayedGroups, stats.ReplayedTuples, stats.SnapshotLSN, stats.TornBytes)
}

// runQuery runs one query or EXPLAIN [ANALYZE] line, printing to out.
func runQuery(out io.Writer, sess *engine.Session, q string) error {
	ctx := context.Background()
	if rest, ok := cutExplain(q); ok {
		rest, analyze := cutAnalyze(rest)
		if rest == "" {
			// A bare EXPLAIN used to fall through to the HQL parser and
			// surface as a cryptic parse error; hint at the verb instead.
			fmt.Fprintln(out, `usage: EXPLAIN [ANALYZE] <QUERY> — e.g. EXPLAIN SELECT WHEN SAL = 30000 FROM EMP`)
			return nil
		}
		var plan string
		var err error
		if analyze {
			plan, err = sess.ExplainAnalyze(ctx, rest)
		} else {
			plan, err = sess.Explain(rest)
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(out, plan)
		return nil
	}
	res, err := sess.Query(ctx, q)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, res)
	return nil
}

// cutExplain strips a leading EXPLAIN keyword (any case) and reports
// whether the line was an EXPLAIN request. A bare EXPLAIN is still an
// EXPLAIN request — it returns ("", true) so the caller can print a
// usage hint rather than a parse error.
func cutExplain(q string) (string, bool) {
	fields := strings.Fields(q)
	if len(fields) == 0 || !strings.EqualFold(fields[0], "EXPLAIN") {
		return q, false
	}
	return strings.TrimSpace(strings.TrimSpace(q)[len(fields[0]):]), true
}

// cutAnalyze strips a leading ANALYZE keyword (any case) from the rest
// of an EXPLAIN line: EXPLAIN ANALYZE executes the query with the
// per-operator profiler attached and renders actual rows and timings
// beside each operator.
func cutAnalyze(q string) (string, bool) {
	fields := strings.Fields(q)
	if len(fields) == 0 || !strings.EqualFold(fields[0], "ANALYZE") {
		return q, false
	}
	return strings.TrimSpace(strings.TrimSpace(q)[len(fields[0]):]), true
}
