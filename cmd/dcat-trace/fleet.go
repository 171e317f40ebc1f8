// Fleet subcommands: tail, query, and explain run against a
// dcat-coord flight recorder (-recorder-dir) over its /fleet HTTP
// query plane. Without a subcommand dcat-trace stays the local
// trace-file inspector it always was (see main.go).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/flightrec"
	"repro/internal/placement"
)

// fleetCommands dispatches os.Args[1]; anything else falls through to
// the legacy trace-file inspector.
var fleetCommands = map[string]func(args []string) error{
	"tail":      runTail,
	"query":     runQuery,
	"explain":   runExplain,
	"placement": runPlacement,
	"causality": runCausality,
	"top":       runTop,
}

// fleetFlags are the filters every fleet subcommand shares; they map
// one-to-one onto /fleet/events query parameters.
type fleetFlags struct {
	coord  string
	agent  string
	vm     string
	kind   string
	socket int
	n      int
	since  string
	until  string
	jsonl  bool
}

func (f *fleetFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.coord, "coord", "http://localhost:9400", "coordinator base URL")
	fs.StringVar(&f.agent, "agent", "", "restrict to one agent's events")
	fs.StringVar(&f.vm, "vm", "", "restrict to one workload/VM")
	fs.StringVar(&f.kind, "kind", "", "restrict to one event kind, e.g. WayGrant")
	fs.IntVar(&f.socket, "socket", -1, "restrict to one LLC domain (-1 = all)")
	fs.IntVar(&f.n, "n", 0, "keep only the most recent n records (0 = all)")
	fs.StringVar(&f.since, "since", "", "keep records ingested after this: a look-back duration (5m, 1h) or an RFC3339 time")
	fs.StringVar(&f.until, "until", "", "keep records ingested before this: a look-back duration (5m, 1h) or an RFC3339 time")
	fs.BoolVar(&f.jsonl, "json", false, "print raw records as JSON Lines instead of the human format")
}

func (f *fleetFlags) values() (url.Values, error) {
	v := url.Values{}
	if f.agent != "" {
		v.Set("agent", f.agent)
	}
	if f.vm != "" {
		v.Set("vm", f.vm)
	}
	if f.kind != "" {
		v.Set("kind", f.kind)
	}
	if f.socket >= 0 {
		v.Set("socket", strconv.Itoa(f.socket))
	}
	if f.n > 0 {
		v.Set("n", strconv.Itoa(f.n))
	}
	for name, s := range map[string]string{"since": f.since, "until": f.until} {
		if s == "" {
			continue
		}
		t, err := parseTimeFlag(s, time.Now())
		if err != nil {
			return nil, fmt.Errorf("-%s: %w", name, err)
		}
		v.Set(name, strconv.FormatInt(t.Unix(), 10))
	}
	return v, nil
}

// fetchFleet GETs one /fleet path and decodes its NDJSON body.
func fetchFleet(coord, path string, v url.Values) ([]flightrec.Record, error) {
	u := strings.TrimRight(coord, "/") + path
	if enc := v.Encode(); enc != "" {
		u += "?" + enc
	}
	res, err := http.Get(u)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(res.Body, 512))
		return nil, fmt.Errorf("GET %s: %s: %s", u, res.Status, strings.TrimSpace(string(msg)))
	}
	var recs []flightrec.Record
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec flightrec.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("bad record line %q: %w", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

func printRecords(w io.Writer, recs []flightrec.Record, jsonl bool) error {
	if jsonl {
		return flightrec.WriteRecordsJSONL(w, recs)
	}
	for i := range recs {
		if _, err := fmt.Fprintln(w, formatRecord(&recs[i])); err != nil {
			return err
		}
	}
	return nil
}

// formatRecord renders one record on one line, e.g.:
//
//	#42 12:00:05 host-a/s1 tick 7 WayGrant web 5->6 ways: IPC below target
func formatRecord(rec *flightrec.Record) string {
	ev := &rec.Event
	var b strings.Builder
	fmt.Fprintf(&b, "#%-6d %s %s", rec.ID, time.Unix(rec.RecvUnix, 0).UTC().Format("15:04:05"), rec.Agent)
	if ev.Socket != 0 {
		fmt.Fprintf(&b, "/s%d", ev.Socket)
	}
	fmt.Fprintf(&b, " tick %-4d %s", ev.Tick, ev.Kind)
	if ev.Workload != "" {
		fmt.Fprintf(&b, " %s", ev.Workload)
	}
	switch {
	case ev.From != "" && ev.To != "":
		fmt.Fprintf(&b, " %s->%s", ev.From, ev.To)
	case ev.From != "":
		// Way events carry only the current category in From.
		fmt.Fprintf(&b, " (%s)", ev.From)
	case ev.To != "":
		fmt.Fprintf(&b, " (->%s)", ev.To)
	}
	if ev.OldWays != 0 || ev.NewWays != 0 {
		fmt.Fprintf(&b, " %d->%d ways", ev.OldWays, ev.NewWays)
	}
	if ev.OldVal != ev.NewVal {
		fmt.Fprintf(&b, " %.3g->%.3g", ev.OldVal, ev.NewVal)
	}
	if ev.Reason != "" {
		fmt.Fprintf(&b, ": %s", ev.Reason)
	}
	if ev.TraceID != 0 {
		fmt.Fprintf(&b, " [trace %016x]", ev.TraceID)
	}
	return b.String()
}

// runQuery is a one-shot /fleet/events fetch with filters.
func runQuery(args []string) error {
	fs := flag.NewFlagSet("dcat-trace query", flag.ExitOnError)
	var ff fleetFlags
	ff.register(fs)
	after := fs.Uint64("after", 0, "keep only records with id > after (resume cursor)")
	trace := fs.String("trace", "", "restrict to one causality trace id (decimal or hex)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	v, err := ff.values()
	if err != nil {
		return err
	}
	if *after > 0 {
		v.Set("after", strconv.FormatUint(*after, 10))
	}
	if *trace != "" {
		id, ok := parseTraceIDArg(*trace)
		if !ok {
			return fmt.Errorf("-trace: bad trace id %q", *trace)
		}
		v.Set("trace", strconv.FormatUint(id, 10))
	}
	recs, err := fetchFleet(ff.coord, "/fleet/events", v)
	if err != nil {
		return err
	}
	return printRecords(os.Stdout, recs, ff.jsonl)
}

// runExplain asks the coordinator why one workload's allocation
// changed: its recent flight-recorder history, fleet-wide.
func runExplain(args []string) error {
	fs := flag.NewFlagSet("dcat-trace explain", flag.ExitOnError)
	var ff fleetFlags
	ff.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if ff.vm == "" && fs.NArg() > 0 {
		// The vm may sit before trailing flags (explain web -n 5);
		// stdlib flag stops at the first positional, so resume parsing
		// after it.
		rest := fs.Args()
		ff.vm = rest[0]
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
	}
	if ff.vm == "" {
		return fmt.Errorf("usage: dcat-trace explain [flags] <vm>")
	}
	shared, err := ff.values()
	if err != nil {
		return err
	}
	v := url.Values{"vm": {ff.vm}}
	for _, name := range []string{"agent", "n", "since", "until"} {
		if s := shared.Get(name); s != "" {
			v.Set(name, s)
		}
	}
	recs, err := fetchFleet(ff.coord, "/fleet/explain", v)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		fmt.Printf("no recorded events for workload %q\n", ff.vm)
		return nil
	}
	return printRecords(os.Stdout, recs, ff.jsonl)
}

// runPlacement shows the coordinator placement engine's status:
// counters, inflight directives, and active cooldowns.
func runPlacement(args []string) error {
	fs := flag.NewFlagSet("dcat-trace placement", flag.ExitOnError)
	coord := fs.String("coord", "http://localhost:9400", "coordinator base URL")
	jsonl := fs.Bool("json", false, "print the raw engine state as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	u := strings.TrimRight(*coord, "/") + "/fleet/placement"
	res, err := http.Get(u)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(io.LimitReader(res.Body, 1<<20))
	if err != nil {
		return err
	}
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s (is dcat-coord running with -placement?)",
			u, res.Status, strings.TrimSpace(string(body)))
	}
	if *jsonl {
		_, err := os.Stdout.Write(body)
		return err
	}
	var st placement.State
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("bad /fleet/placement body: %w", err)
	}
	fmt.Printf("evaluations %d  issued %d  executed %d  settled %d  rolled-back %d  failed %d\n",
		st.Evaluations, st.Issued, st.Executed, st.Settled, st.RolledBack, st.Failed)
	for _, d := range st.Inflight {
		flag := ""
		if d.Rollback {
			flag = " [rollback]"
		}
		fmt.Printf("inflight #%d %s/%s socket %d->%d %s age %d%s: %s\n",
			d.ID, d.Agent, d.Workload, d.FromSocket, d.ToSocket, d.Phase, d.Age, flag, d.Reason)
	}
	for key, left := range st.Cooldowns {
		fmt.Printf("cooldown %s: %d evaluations left\n", key, left)
	}
	return nil
}

// runTail prints recent records, then follows the fleet recorder by
// polling /fleet/events with an id cursor until interrupted.
func runTail(args []string) error {
	fs := flag.NewFlagSet("dcat-trace tail", flag.ExitOnError)
	var ff fleetFlags
	ff.register(fs)
	every := fs.Duration("every", time.Second, "poll interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	// First fetch: a bounded slice of history (default the last 10)
	// seeds the cursor; after that only records past it are asked for.
	v, err := ff.values()
	if err != nil {
		return err
	}
	if ff.n <= 0 {
		v.Set("n", "10")
	}
	recs, err := fetchFleet(ff.coord, "/fleet/events", v)
	if err != nil {
		return err
	}
	var cursor uint64
	for {
		if err := printRecords(os.Stdout, recs, ff.jsonl); err != nil {
			return err
		}
		if len(recs) > 0 {
			cursor = recs[len(recs)-1].ID
		}
		select {
		case <-sig:
			return nil
		case <-time.After(*every):
		}
		if v, err = ff.values(); err != nil {
			return err
		}
		v.Del("n")
		v.Set("after", strconv.FormatUint(cursor, 10))
		// A transient fetch error (coordinator restarting) just skips a
		// poll; the cursor makes the next success gap-free.
		if recs, err = fetchFleet(ff.coord, "/fleet/events", v); err != nil {
			fmt.Fprintln(os.Stderr, "dcat-trace:", err)
			recs = nil
		}
	}
}
