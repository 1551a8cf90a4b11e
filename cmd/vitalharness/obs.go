package main

// The observability subcommands (`make obssmoke|alertsmoke|tracesmoke`)
// boot the stack with lenet-S compiled and deployed over HTTP, then
// verify one group of observability surfaces end to end, exiting
// non-zero on the first broken one.
//
// core:
//
//  1. GET /metrics?format=prometheus parses under the strict exposition
//     validator and contains the deploy-latency histogram;
//  2. GET /traces lists the compile and deploy traces;
//  3. GET /trace/{id} returns the deploy trace with its span tree intact.
//
// alerts:
//
//  4. GET /placement reports the deployed app's placement quality;
//  5. an execution populates the channel-traffic series in the exposition;
//  6. a live SSE client on GET /events/stream observes the fault, the
//     evacuation and the alert transition triggered by failing the app's
//     primary board, and GET /alerts reports the board rule firing.
//
// trace:
//
//  7. one authenticated submit flows gateway → backend compile → async
//     queue → worker deploy, and GET /trace/{id} on the gateway returns
//     that whole journey as ONE contiguous cross-process trace;
//  8. the gateway's exposition validates strictly and carries the
//     per-tenant RED, SLO and exemplar series;
//  9. the backend is torn down and failing submits burn the tenant's
//     error budget until the multi-window burn-rate rule FIRES on
//     GET /slo.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"vital/internal/core"
	"vital/internal/gateway"
	"vital/internal/sched"
	"vital/internal/stacktest"
	"vital/internal/telemetry"
	"vital/internal/workload"
)

// smokeToken authenticates the trace phase's tenant, acme.
const smokeToken = "smoke-token"

// obsPhase wraps one group of observability assertions as a subcommand
// that boots the stack, compiles lenet-S and deploys it over HTTP, then
// runs phase. The subcommands take no flags.
func obsPhase(name string, phase func(*stacktest.Stack, *core.CompiledApp)) func([]string) error {
	return func(args []string) error {
		_ = newFlagSet(name).Parse(args)
		// Zero For-duration on the board rule so the alerts phase sees the
		// firing transition on the first evaluation after the fault.
		th := sched.DefaultAlertThresholds()
		th.BoardUnhealthyFor = 0
		// Tiny SLO windows so the trace phase's burn-rate ladder resolves in
		// smoke-test time: 90% availability over 2s, alert when both the
		// 500ms and the 1s windows burn more than 2x.
		st, err := stacktest.Boot(sched.Options{Alerts: &th}, gateway.Config{
			Tokens:    map[string]string{smokeToken: "acme"},
			SLOTarget: 0.9,
			SLOWindow: 2 * time.Second,
			BurnRules: []telemetry.BurnRateRule{
				{Name: "fast_burn", Short: 500 * time.Millisecond, Long: time.Second, Factor: 2},
			},
		})
		if err != nil {
			return err
		}
		defer st.Close()
		log.Printf("backend %s, gateway %s", st.Backend, st.Front)

		spec, err := workload.ParseSpec("lenet-S")
		if err != nil {
			return err
		}
		app, err := st.Core.Compile(workload.BuildDesign(spec))
		if err != nil {
			return fmt.Errorf("compiling lenet-S: %w", err)
		}
		log.Printf("compiled lenet-S: %d blocks in %v", app.Blocks(), app.Wall)

		// Deploy through the HTTP API so the access log, the route histograms
		// and the deploy trace all fire on a real request path.
		if err := postOK(st, st.Backend+"/deploy", "", map[string]string{"app": "lenet-S"}); err != nil {
			return err
		}
		log.Printf("deployed lenet-S")

		phase(st, app)
		log.Printf("PASS")
		return nil
	}
}

// corePhase verifies the exposition, trace listing and trace retrieval.
func corePhase(st *stacktest.Stack, _ *core.CompiledApp) {
	// Surface 1: the Prometheus exposition must parse under the strict
	// validator and carry the deploy-latency histogram.
	expo := mustExposition(st, st.Backend,
		"vital_deploy_seconds_bucket",
		"vital_compile_seconds_bucket",
		"vital_http_request_seconds_bucket",
		"vital_board_health",
	)
	log.Printf("prometheus exposition OK (%d bytes)", len(expo))

	// Surface 2: the deploy must have left a retrievable trace.
	var list struct {
		Traces []telemetry.TraceSummary `json:"traces"`
	}
	mustGetJSON(st, st.Backend+"/traces?app=lenet-S", &list)
	var deployID string
	for _, ts := range list.Traces {
		if ts.Name == "deploy" {
			deployID = ts.ID
			break
		}
	}
	if deployID == "" {
		log.Fatalf("no deploy trace for lenet-S in %d traces", len(list.Traces))
	}

	// Surface 3: the full trace comes back with its span tree.
	var td telemetry.TraceData
	mustGetJSON(st, st.Backend+"/trace/"+deployID, &td)
	if len(td.AllSpans) < 2 {
		log.Fatalf("deploy trace %s has %d spans, want at least root+child", deployID, len(td.AllSpans))
	}
	tree := td.Tree()
	for _, want := range []string{"deploy", "allocate", "provision"} {
		if !strings.Contains(tree, want) {
			log.Fatalf("deploy trace tree missing %q span:\n%s", want, tree)
		}
	}
	log.Printf("deploy trace %s OK (%d spans)", deployID, len(td.AllSpans))
}

// alertsPhase verifies placement scoring, data-plane metrics and the live
// alert path: SSE stream → board fault → evacuation → firing alert.
func alertsPhase(st *stacktest.Stack, app *core.CompiledApp) {
	// Surface 4: the placement report covers the deployed app.
	var cp sched.ClusterPlacement
	mustGetJSON(st, st.Backend+"/placement", &cp)
	if len(cp.Apps) != 1 || cp.Apps[0].App != "lenet-S" {
		log.Fatalf("placement report apps = %+v, want [lenet-S]", cp.Apps)
	}
	sc := cp.Apps[0]
	if sc.Quality < 0 || sc.Quality > 1 {
		log.Fatalf("placement quality %v out of range", sc.Quality)
	}
	log.Printf("placement OK: %d edges, %d/%d/%d intra/inter-die/inter-board, quality %.2f",
		sc.Edges, sc.IntraDie, sc.InterDie, sc.InterBoard, sc.Quality)

	// Surface 5: an execution populates the channel-traffic series.
	dep, ok := st.Core.Controller.Deployment("lenet-S")
	if !ok {
		log.Fatal("lenet-S vanished between deploy and execute")
	}
	primary := dep.Primary
	stats, err := st.Core.Execute(app, dep, 64)
	if err != nil {
		log.Fatalf("execute: %v", err)
	}
	log.Printf("executed lenet-S: %d cycles, %d firings through %d actors",
		stats.Cycles, stats.Tokens, stats.NumActors)

	// Surface 6: a live SSE subscriber must observe the fault, the
	// evacuation and the alert transition.
	events := subscribeSSE(st, st.Backend+"/events/stream?heartbeat=1s")
	if err := postOK(st, st.Backend+"/fault", "", map[string]interface{}{"board": primary, "kind": "fail"}); err != nil {
		log.Fatal(err)
	}
	waitEvent(events, sched.EventFault, "")
	waitEvent(events, sched.EventEvacuate, "")
	log.Printf("SSE observed fault and evacuation of board %d", primary)

	// GET /alerts evaluates the rules; the zero-For board rule must fire
	// and its transition must arrive over the same stream.
	rule := fmt.Sprintf("board_%d_unhealthy", primary)
	if firing, err := ruleFiring(st, rule); err != nil || !firing {
		log.Fatalf("%s not firing after board %d failed (%v)", rule, primary, err)
	}
	waitEvent(events, sched.EventAlert, rule)
	log.Printf("alert %s fired and arrived over SSE", rule)

	// The exposition must now carry channel-traffic, placement-quality and
	// alert-state series, still accepted by the strict validator.
	expo := mustExposition(st, st.Backend,
		"vital_channel_tokens_total",
		"vital_channel_effective_gbps",
		"vital_ring_segment_utilization",
		"vital_placement_quality",
		"vital_fragmentation_index",
		"vital_alert_state",
		"vital_mem_read_bytes_total",
		"vital_vnic_tx_frames_total",
	)
	log.Printf("data-plane exposition OK (%d bytes)", len(expo))
}

// tracePhase verifies the cross-process tracing and SLO tier: one submit
// through the gateway reassembling into a single contiguous trace, the
// tenant RED and exemplar series, and — after the backend dies — a firing
// multi-window burn-rate alert.
func tracePhase(st *stacktest.Stack, _ *core.CompiledApp) {
	// Surface 7: one submit, one trace ID, the whole journey under it.
	resp, raw := submitLenet(st)
	if resp.StatusCode != http.StatusAccepted {
		log.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var sub struct {
		TraceID string `json:"trace_id"`
		Ticket  struct {
			ID string `json:"id"`
		} `json:"ticket"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil || sub.TraceID == "" || sub.Ticket.ID == "" {
		log.Fatalf("submit response lacks trace/ticket (%v): %s", err, raw)
	}
	tk, err := st.AwaitTicket(sub.Ticket.ID, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	if tk.State != sched.TicketSucceeded {
		log.Fatalf("submit ticket failed: %s", tk.Error)
	}

	var td telemetry.TraceData
	mustGetJSON(st, st.Front+"/trace/"+sub.TraceID, &td)
	ids := map[int64]bool{}
	names := map[string]bool{}
	for _, sp := range td.AllSpans {
		ids[sp.ID] = true
		names[sp.Name] = true
	}
	roots := 0
	for _, sp := range td.AllSpans {
		if sp.Parent == 0 {
			roots++
		} else if !ids[sp.Parent] {
			log.Fatalf("trace %s not contiguous: span %q parent %#x missing:\n%s",
				sub.TraceID, sp.Name, sp.Parent, td.Tree())
		}
	}
	if roots != 1 {
		log.Fatalf("trace %s has %d roots, want 1:\n%s", sub.TraceID, roots, td.Tree())
	}
	for _, want := range []string{"submit", "backend.enqueue", "compile", "deploy.async", "queue.wait", "deploy"} {
		if !names[want] {
			log.Fatalf("trace %s missing %q span:\n%s", sub.TraceID, want, td.Tree())
		}
	}
	log.Printf("cross-process trace %s OK: %d spans, one contiguous tree", sub.TraceID, len(td.AllSpans))

	// Surface 8: the gateway exposition validates strictly and carries
	// the tenant RED, SLO and exemplar series.
	expo := mustExposition(st, st.Front,
		"vital_tenant_requests_total",
		"vital_tenant_latency_seconds_bucket",
		"vital_tenant_slo_budget_remaining",
		"vital_tenant_slo_burn_rate",
		"vital_alert_state",
		`# {trace_id="`,
	)
	log.Printf("gateway exposition OK (%d bytes, exemplars present)", len(expo))

	// Surface 9: kill the backend; failing submits burn acme's error
	// budget until the burn-rate rule fires.
	st.KillBackend()
	fireDeadline := time.Now().Add(15 * time.Second)
	for {
		if resp, raw := submitLenet(st); resp.StatusCode != http.StatusBadGateway {
			log.Fatalf("submit against dead backend: status %d, want 502: %s", resp.StatusCode, raw)
		}
		var slo struct {
			Tenants map[string]telemetry.SLOStatus `json:"tenants"`
			Alerts  []telemetry.AlertStatus        `json:"alerts"`
		}
		mustGetJSON(st, st.Front+"/slo", &slo)
		firing := ""
		for _, a := range slo.Alerts {
			if a.State == telemetry.AlertFiring {
				firing = a.Rule
			}
		}
		if firing != "" {
			acme := slo.Tenants["acme"]
			if acme.BudgetRemaining >= 1 {
				log.Fatalf("burn rule %s firing but acme's budget untouched: %+v", firing, acme)
			}
			log.Printf("burn-rate alert %s firing: acme at %d/%d errors, budget %.2f",
				firing, acme.Errors, acme.Total, acme.BudgetRemaining)
			return
		}
		if time.Now().After(fireDeadline) {
			log.Fatalf("no burn-rate rule firing after sustained 502s: %+v", slo.Alerts)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// submitLenet POSTs one authenticated lenet-S submission to the gateway.
func submitLenet(st *stacktest.Stack) (*http.Response, []byte) {
	resp, raw, err := st.Post(st.Front+"/submit", smokeToken, map[string]string{"design": "lenet-S"})
	if err != nil {
		log.Fatalf("submit: %v", err)
	}
	return resp, raw
}

func mustGetJSON(st *stacktest.Stack, url string, v interface{}) {
	if err := st.GetJSON(url, v); err != nil {
		log.Fatal(err)
	}
}

// mustExposition fetches and strictly validates base's exposition and
// fails unless it contains every wanted substring.
func mustExposition(st *stacktest.Stack, base string, want ...string) []byte {
	expo, err := st.FetchExposition(base)
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range want {
		if !bytes.Contains(expo, []byte(w)) {
			log.Fatalf("%s exposition missing %s", base, w)
		}
	}
	return expo
}

// subscribeSSE connects to the event stream and returns a channel of
// decoded events. It blocks until the server acknowledges the stream, so
// events triggered after it returns are guaranteed to be delivered.
func subscribeSSE(st *stacktest.Stack, url string) <-chan sched.Event {
	resp, err := st.Client.Get(url)
	if err != nil {
		log.Fatalf("events/stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("events/stream: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			log.Fatalf("events/stream preamble: %v", err)
		}
		if strings.HasPrefix(line, ": stream open") {
			break
		}
	}
	// The buffer holds every event one phase provokes, so the reader
	// never stalls the stream between waitEvent calls.
	events := make(chan sched.Event, 64)
	go func() {
		defer resp.Body.Close()
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				close(events)
				return
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev sched.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				log.Fatalf("events/stream: bad frame %q: %v", line, err)
			}
			events <- ev
		}
	}()
	return events
}

// waitEvent consumes the stream until an event of the wanted kind (and
// app, when non-empty) arrives, failing after a timeout.
func waitEvent(events <-chan sched.Event, kind sched.EventKind, app string) {
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				log.Fatalf("event stream closed while waiting for %s", kind)
			}
			if ev.Kind == kind && (app == "" || ev.App == app) {
				return
			}
		case <-deadline:
			log.Fatalf("timed out waiting for %s event (app %q)", kind, app)
		}
	}
}
