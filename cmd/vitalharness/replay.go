package main

// The replay subcommand replays a recorded tenant mix against the stack
// and reports the run's trajectory — utilization, fragmentation index,
// queue depth, and per-tenant SLO budget — as curves sourced from an
// embedded TSDB that scrapes both tiers' registries throughout the replay
// (backend series under tier=backend, gateway series under tier=gateway).
//
// The trace is JSON (see testdata/example-trace.json):
//
//	{
//	  "name": "example-mix",
//	  "events": [
//	    {"at_ms": 0, "tenant": "alice", "design": "lenet-S",
//	     "priority": "latency", "mem_quota_bytes": 0, "lifetime_ms": 2500},
//	    ...
//	  ]
//	}
//
// Each event is one tenant arrival: at at_ms (scaled by -speed) the
// tenant submits the design through the gateway, waits for the deploy
// ticket to complete, holds the deployment for lifetime_ms, then
// undeploys. Tokens are derived from tenant names.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"vital/internal/gateway"
	"vital/internal/sched"
	"vital/internal/stacktest"
	"vital/internal/telemetry"
	"vital/internal/telemetry/tsdb"
	"vital/internal/workload"
)

// traceFile is the recorded tenant mix.
type traceFile struct {
	Name   string       `json:"name"`
	Events []traceEvent `json:"events"`
}

// traceEvent is one tenant arrival in the mix.
type traceEvent struct {
	AtMs          int64  `json:"at_ms"`
	Tenant        string `json:"tenant"`
	Design        string `json:"design"`
	Priority      string `json:"priority"`
	MemQuotaBytes uint64 `json:"mem_quota_bytes"`
	LifetimeMs    int64  `json:"lifetime_ms"`
}

// parseTrace decodes and validates a recorded mix: one JSON object with
// no unknown fields and no trailing data, at least one event, and every
// event naming a tenant and a known design, with non-negative times and
// a priority the gateway accepts.
func parseTrace(raw []byte) (traceFile, error) {
	var tf traceFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tf); err != nil {
		return tf, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return tf, errors.New("trailing data after the trace object")
	}
	if len(tf.Events) == 0 {
		return tf, errors.New("trace holds no events")
	}
	for i, ev := range tf.Events {
		if ev.Tenant == "" || ev.Design == "" {
			return tf, fmt.Errorf("event %d needs tenant and design", i)
		}
		if ev.AtMs < 0 || ev.LifetimeMs < 0 {
			return tf, fmt.Errorf("event %d: negative at_ms or lifetime_ms", i)
		}
		if _, err := sched.ParsePriority(ev.Priority); err != nil {
			return tf, fmt.Errorf("event %d: %w", i, err)
		}
		if _, err := workload.ParseSpec(ev.Design); err != nil {
			return tf, fmt.Errorf("event %d: %w", i, err)
		}
	}
	return tf, nil
}

// report is the JSON output shape. Curves are [t_unix_ms, value] pairs
// straight from TSDB range queries.
type report struct {
	Trace    string  `json:"trace"`
	Events   int     `json:"events"`
	Failures int     `json:"failures"`
	WallMs   int64   `json:"wall_ms"`
	Series   int     `json:"tsdb_series"`
	StepMs   int64   `json:"step_ms"`
	SpeedUp  float64 `json:"speed"`
	Curves   struct {
		Utilization        []tsdb.Point            `json:"utilization"`
		FragmentationIndex []tsdb.Point            `json:"fragmentation_index"`
		QueueDepth         map[string][]tsdb.Point `json:"queue_depth"`
		SLOBudgetRemaining map[string][]tsdb.Point `json:"slo_budget_remaining"`
	} `json:"curves"`
}

type replay struct {
	trace traceFile
	speed float64
	db    *tsdb.DB
	st    *stacktest.Stack
	verdict
}

func runReplay(args []string) error {
	fs := newFlagSet("replay")
	tracePath := fs.String("trace", "", "recorded tenant mix (JSON; required)")
	speed := fs.Float64("speed", 1, "time compression: 2 replays the trace twice as fast")
	scrape := fs.Duration("scrape", 250*time.Millisecond, "TSDB scrape cadence during the replay")
	format := fs.String("format", "json", "report format: json or csv")
	out := fs.String("out", "-", "report destination (- = stdout)")
	check := fs.Bool("check", false, "run the CI assertions (monotonic counters, non-empty curves, valid expositions) and exit non-zero on violation")
	_ = fs.Parse(args)
	switch {
	case *tracePath == "":
		return usageError{errors.New("-trace is required")}
	case *speed <= 0:
		return usageError{errors.New("-speed must be positive")}
	case *scrape <= 0:
		return usageError{errors.New("-scrape must be positive")}
	case *format != "json" && *format != "csv":
		return usageError{fmt.Errorf("bad -format %q: want json or csv", *format)}
	}

	raw, err := os.ReadFile(*tracePath)
	if err != nil {
		return err
	}
	tf, err := parseTrace(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", *tracePath, err)
	}

	creds := map[string]string{}
	for _, ev := range tf.Events {
		creds[token(ev.Tenant)] = ev.Tenant
	}
	st, err := stacktest.Boot(sched.Options{}, gateway.Config{Tokens: creds})
	if err != nil {
		return err
	}
	defer st.Close()
	rp := &replay{trace: tf, speed: *speed, db: tsdb.New(tsdb.Options{}), st: st}

	// Scrape both tiers into the one replay store for the whole run; the
	// tier label keeps backend and gateway series apart at query time.
	start := time.Now()
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		ticker := time.NewTicker(*scrape)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-ticker.C:
				rp.scrapeBoth(now)
			}
		}
	}()

	rp.run()
	// One closing scrape so the final state (everything undeployed, queues
	// empty) is on the curves.
	close(stop)
	scrapeWG.Wait()
	rp.scrapeBoth(time.Now())
	wall := time.Since(start)

	rep := rp.report(start, wall, *scrape)
	if *check {
		rp.checkMonotonicCounters()
		rp.checkCurves(rep)
		rp.checkExpositions()
	}

	var buf bytes.Buffer
	if *format == "csv" {
		writeCSV(&buf, rep)
	} else {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	}
	if *out == "-" {
		_, _ = io.Copy(os.Stdout, &buf)
	} else if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
		return err
	}

	log.Printf("replayed %q: %d events in %v, %d TSDB series",
		tf.Name, len(tf.Events), wall.Round(time.Millisecond), rep.Series)
	if err := rp.err(); err != nil {
		return err
	}
	if *check {
		log.Printf("PASS: all replay assertions held")
	}
	return nil
}

// scrapeBoth samples both tiers' registries into the replay store.
func (rp *replay) scrapeBoth(now time.Time) {
	rp.db.Scrape(rp.st.Core.Controller.Reg, now, telemetry.L("tier", "backend"))
	rp.db.Scrape(rp.st.Gateway.Reg, now, telemetry.L("tier", "gateway"))
}

// run plays every event at its scaled arrival time and waits for all
// lifetimes to finish.
func (rp *replay) run() {
	start := time.Now()
	var wg sync.WaitGroup
	for i, ev := range rp.trace.Events {
		wg.Add(1)
		go func(i int, ev traceEvent) {
			defer wg.Done()
			at := time.Duration(float64(ev.AtMs)/rp.speed) * time.Millisecond
			if d := time.Until(start.Add(at)); d > 0 {
				time.Sleep(d)
			}
			if err := rp.playEvent(ev); err != nil {
				rp.failf("event %d (%s %s): %v", i, ev.Tenant, ev.Design, err)
			}
		}(i, ev)
	}
	wg.Wait()
}

// playEvent is one tenant arrival: submit, await the ticket, hold for the
// lifetime, undeploy. Sheds and capacity losses retry with backoff — the
// replay preserves arrival order, not failure behavior.
func (rp *replay) playEvent(ev traceEvent) error {
	priority := ev.Priority
	if priority == "" {
		priority = "latency"
	}
	var app, ticketID string
	for attempt := 0; ; attempt++ {
		if attempt >= 50 {
			return fmt.Errorf("50 submit attempts exhausted")
		}
		resp, body, err := rp.st.Post(rp.st.Front+"/submit", token(ev.Tenant), map[string]interface{}{
			"design": ev.Design, "priority": priority, "mem_quota_bytes": ev.MemQuotaBytes,
		})
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("submit: status %d: %s", resp.StatusCode, body)
		}
		var sr submitResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			return fmt.Errorf("submit response: %w", err)
		}
		app, ticketID = sr.App, sr.Ticket.ID
		t, err := rp.st.AwaitTicket(ticketID, 60*time.Second)
		if err != nil {
			return err
		}
		if t.State == sched.TicketFailed {
			// "already deployed" happens when a repeat arrival of the same
			// (tenant, design) races the earlier instance's undeploy — in a
			// recorded trace that is legal, so wait it out.
			if t.Retryable || strings.Contains(t.Error, "already deployed") {
				time.Sleep(50 * time.Millisecond)
				continue
			}
			return fmt.Errorf("ticket %s: %s", ticketID, t.Error)
		}
		break
	}
	time.Sleep(time.Duration(float64(ev.LifetimeMs)/rp.speed) * time.Millisecond)
	return postOK(rp.st, rp.st.Front+"/undeploy", token(ev.Tenant), map[string]string{"app": app})
}

// query runs one range query against the replay store, returning the
// results (empty on error — the report prints what it has).
func (rp *replay) query(q tsdb.Query) []tsdb.Result {
	resp, err := rp.db.Query(q)
	if err != nil {
		rp.failf("query %s: %v", q.Name, err)
		return nil
	}
	return resp.Results
}

// report assembles the output curves from TSDB range queries over the
// replay window.
func (rp *replay) report(start time.Time, wall time.Duration, scrape time.Duration) *report {
	rep := &report{
		Trace:   rp.trace.Name,
		Events:  len(rp.trace.Events),
		WallMs:  wall.Milliseconds(),
		Series:  rp.db.SeriesCount(),
		StepMs:  scrape.Milliseconds(),
		SpeedUp: rp.speed,
	}
	rep.Failures = rp.count()
	end := start.Add(wall + scrape)
	base := tsdb.Query{Func: tsdb.FuncLast, Start: start, End: end, Step: scrape, Window: 2 * scrape}

	// Utilization = used/total, joined pointwise on the aligned grid.
	q := base
	q.Name, q.Matchers = "vital_used_blocks", map[string]string{"tier": "backend"}
	used := flatten(rp.query(q))
	q.Name = "vital_total_blocks"
	total := flatten(rp.query(q))
	totalAt := map[int64]float64{}
	for _, p := range total {
		totalAt[p.T] = p.V
	}
	for _, p := range used {
		if tot := totalAt[p.T]; tot > 0 {
			rep.Curves.Utilization = append(rep.Curves.Utilization, tsdb.Point{T: p.T, V: p.V / tot})
		}
	}

	q.Name = "vital_fragmentation_index"
	rep.Curves.FragmentationIndex = flatten(rp.query(q))

	q.Name = "vital_queue_depth"
	rep.Curves.QueueDepth = map[string][]tsdb.Point{}
	for _, res := range rp.query(q) {
		rep.Curves.QueueDepth[res.Labels["class"]] = res.Points
	}

	q.Name, q.Matchers = "vital_tenant_slo_budget_remaining", map[string]string{"tier": "gateway"}
	rep.Curves.SLOBudgetRemaining = map[string][]tsdb.Point{}
	for _, res := range rp.query(q) {
		rep.Curves.SLOBudgetRemaining[res.Labels["tenant"]] = res.Points
	}
	return rep
}

// flatten merges a query's results into one point list (the utilization
// and fragmentation sources are single-series).
func flatten(results []tsdb.Result) []tsdb.Point {
	var pts []tsdb.Point
	for _, r := range results {
		pts = append(pts, r.Points...)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
	return pts
}

// checkMonotonicCounters raw-queries every stored *_total series and
// asserts its samples never decrease — no process restarted mid-replay,
// so any dip is a scrape-or-encode bug.
func (rp *replay) checkMonotonicCounters() {
	checked := 0
	for _, name := range rp.db.Names() {
		if !strings.HasSuffix(name, "_total") {
			continue
		}
		resp, err := rp.db.Query(tsdb.Query{
			Name: name, Func: tsdb.FuncRaw,
			Start: time.Unix(0, 0), End: time.Now().Add(time.Hour),
		})
		if err != nil {
			rp.failf("monotonicity query %s: %v", name, err)
			continue
		}
		for _, res := range resp.Results {
			for i := 1; i < len(res.Points); i++ {
				if res.Points[i].V < res.Points[i-1].V {
					rp.failf("counter %s%v decreased: %g → %g at sample %d",
						name, res.Labels, res.Points[i-1].V, res.Points[i].V, i)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		rp.failf("monotonicity: no *_total series stored — did the scrape loop run?")
	} else {
		log.Printf("monotonicity: %d counter series all non-decreasing", checked)
	}
}

// checkCurves asserts the report's headline curves are non-empty and
// utilization actually moved (the trace deploys something).
func (rp *replay) checkCurves(rep *report) {
	if len(rep.Curves.Utilization) == 0 {
		rp.failf("curves: utilization is empty")
		return
	}
	peak := 0.0
	for _, p := range rep.Curves.Utilization {
		peak = max(peak, p.V)
	}
	if peak <= 0 {
		rp.failf("curves: utilization never rose above zero across %d points", len(rep.Curves.Utilization))
	}
	log.Printf("curves: utilization %d points (peak %.3f), fragmentation %d, queue classes %d, tenants %d",
		len(rep.Curves.Utilization), peak, len(rep.Curves.FragmentationIndex),
		len(rep.Curves.QueueDepth), len(rep.Curves.SLOBudgetRemaining))
}

// checkExpositions asserts both tiers' Prometheus expositions — which
// include the vital_tsdb_* self-series of each tier's embedded store —
// parse under the strict validator.
func (rp *replay) checkExpositions() {
	for _, tier := range []struct{ name, base string }{
		{"backend", rp.st.Backend}, {"gateway", rp.st.Front},
	} {
		data, err := rp.st.FetchExposition(tier.base)
		if err != nil {
			rp.failf("exposition %s: %v", tier.name, err)
			continue
		}
		if !bytes.Contains(data, []byte("vital_tsdb_")) {
			rp.failf("exposition %s: no vital_tsdb_* self-series", tier.name)
			continue
		}
		log.Printf("exposition %s: valid, vital_tsdb_* present", tier.name)
	}
}

// writeCSV renders every curve as series,label,t_unix_ms,value rows.
func writeCSV(w io.Writer, rep *report) {
	fmt.Fprintln(w, "series,key,t_unix_ms,value")
	row := func(series, key string, pts []tsdb.Point) {
		for _, p := range pts {
			fmt.Fprintf(w, "%s,%s,%d,%g\n", series, key, p.T, p.V)
		}
	}
	row("utilization", "", rep.Curves.Utilization)
	row("fragmentation_index", "", rep.Curves.FragmentationIndex)
	for _, class := range sortedKeys(rep.Curves.QueueDepth) {
		row("queue_depth", class, rep.Curves.QueueDepth[class])
	}
	for _, tenant := range sortedKeys(rep.Curves.SLOBudgetRemaining) {
		row("slo_budget_remaining", tenant, rep.Curves.SLOBudgetRemaining[tenant])
	}
}

// sortedKeys orders a curve map's keys for deterministic CSV output.
func sortedKeys(m map[string][]tsdb.Point) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
