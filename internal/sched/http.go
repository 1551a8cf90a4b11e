package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"vital/internal/httpapi"
	"vital/internal/telemetry"
)

// defaultMemQuota is applied when a deploy request carries no (or a zero)
// mem_quota_bytes; the response echoes the value actually used.
const defaultMemQuota uint64 = 1 << 30

// defaultHeartbeat is the SSE keep-alive comment interval of
// /events/stream (override per request with ?heartbeat=).
const defaultHeartbeat = 15 * time.Second

// streamBufferEvents is each SSE subscriber's event buffer: within this
// bound a slow client loses nothing; beyond it, newest events are dropped
// for that subscriber rather than stalling the controller.
const streamBufferEvents = 1024

// shedRetryAfterSeconds is the Retry-After hint on a 429 shed: one drain
// interval is a safe lower bound — the queue turns over well within it
// unless the cluster is genuinely saturated, in which case the client
// backs off again.
const shedRetryAfterSeconds = 1

// NewHandler exposes the system controller over HTTP — the API surface a
// higher-level system (hypervisor, cloud control plane, the vitalgw
// admission gateway) integrates with (Fig. 6: "exposes APIs for an easy
// system integration"). Every route is instrumented with a per-route
// latency histogram and per-status request counter
// (vital_http_request_seconds / vital_http_requests_total).
//
//	GET  /status            → cluster occupancy + per-board health
//	GET  /metrics           → one consistent snapshot: occupancy, per-board
//	                          health, compile-cache hit/miss counters, event
//	                          totals, and operation latency summaries
//	                          (p50/p90/p99). ?format=prometheus switches to
//	                          the Prometheus text exposition of the full
//	                          registry (histograms, gauges, counters).
//	GET  /query             → range queries over the embedded time-series
//	                          store (?series=name{k="v"}&func=rate|increase|
//	                          avg|max|quantile|last|raw&start=&end=&step=;
//	                          no ?series= lists stored metric names). The
//	                          store holds history only while a scrape loop
//	                          runs (vitald's -scrape-interval poller).
//	GET  /traces?app=A&max=N&since=T → recent trace summaries, newest
//	                          first; ?app= matches the root span's app attr
//	                          exactly or by prefix, ?since= is an RFC 3339
//	                          time or a lookback duration (5m)
//	GET  /trace/{id}        → one complete trace (all spans) by ID
//	GET  /events?max=N      → recent audit log (N clamped to the log limit;
//	                          negative or non-numeric N is a 400)
//	GET  /events/stream     → live events over SSE (id: is the event seq,
//	                          event: the kind, data: the JSON event);
//	                          ?kind= filters, ?heartbeat= tunes keep-alive
//	                          comments
//	GET  /placement         → cluster placement-quality report (crossings,
//	                          fragmentation, contiguity); ?app= scores one
//	                          deployment (404 if not deployed)
//	GET  /alerts            → evaluate alert rules now and report each
//	                          rule's state (inactive/pending/firing)
//	GET  /apps              → deployed applications
//	GET  /health            → per-board health report
//	GET  /cache             → compile-cache hit/miss counters
//	GET  /verify            → architectural invariant check (409 on violation)
//	GET  /queue             → async deploy pipeline snapshot: per-class
//	                          depth/shed/completion counters, wait and
//	                          admission latency summaries
//	GET  /deployments       → async deploy tickets, newest first
//	                          (?state=queued|running|succeeded|failed,
//	                          ?max=N)
//	GET  /deployments/{id}  → one ticket by ID (404 once evicted)
//	POST /deploy   {app, mem_quota_bytes} → deployment summary; a zero or
//	                          absent quota gets the 1 GiB default, echoed
//	                          back as mem_quota_bytes with
//	                          mem_quota_defaulted=true. Errors: 409 for a
//	                          name conflict, 503 when the healthy cluster
//	                          lacks capacity, 400 for bad input.
//	                          ?async=1 enqueues into the bounded deploy
//	                          pipeline instead and answers 202 with a
//	                          ticket (?priority=latency|batch selects the
//	                          class, default latency); a full class queue
//	                          sheds with 429 + Retry-After.
//	POST /undeploy {app}
//	POST /fault    {board, kind} → inject degrade|fail|recover; failing a
//	                          board returns its evacuation report
func NewHandler(ct *Controller) http.Handler {
	mux := http.NewServeMux()
	// handle registers a route wrapped with the per-route latency histogram
	// and request counter; the route label is the mux pattern, so
	// /trace/{id} is one series, not one per trace.
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, telemetry.InstrumentRoute(ct.Reg, ct.Tracer, pattern, h))
	}

	handle("GET /status", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, ct.Status())
	})

	handle("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		format, err := httpapi.QueryEnum(r, "format", "json", "json", "prometheus")
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if format == "prometheus" {
			w.Header().Set("Content-Type", telemetry.ContentType)
			_ = ct.Reg.WritePrometheus(w)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, ct.Metrics())
	})

	handle("GET /query", func(w http.ResponseWriter, r *http.Request) {
		ct.TSDB.ServeQuery(w, r)
	})

	handle("GET /traces", func(w http.ResponseWriter, r *http.Request) {
		max, err := httpapi.QueryInt(r, "max", 50)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		// ?since= accepts an RFC 3339 timestamp or a Go duration (lookback
		// from now): traces that started before the cutoff are dropped.
		since, err := httpapi.QuerySince(r, "since")
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		// ?app= matches the root span's app attribute exactly or by prefix,
		// so ?app=lenet covers lenet-S and lenet-M.
		app := r.URL.Query().Get("app")
		all := ct.Tracer.Recent(0)
		traces := make([]telemetry.TraceSummary, 0, len(all))
		for _, ts := range all {
			if app != "" && !strings.HasPrefix(ts.Attrs["app"], app) {
				continue
			}
			if !since.IsZero() && ts.Start.Before(since) {
				continue
			}
			if max > 0 && len(traces) == max {
				break
			}
			traces = append(traces, ts)
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]interface{}{"traces": traces})
	})

	handle("GET /trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		td, ok := ct.Tracer.Get(r.PathValue("id"))
		if !ok {
			httpapi.WriteError(w, http.StatusNotFound, fmt.Errorf("no trace %q (retention is the %d most recent)", r.PathValue("id"), telemetry.DefaultTraceLimit))
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, td)
	})

	handle("GET /events", func(w http.ResponseWriter, r *http.Request) {
		max, err := httpapi.QueryInt(r, "max", 256)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		// max=0 means "everything"; either way the log's own retention
		// limit is the ceiling, so Snapshot never over-allocates.
		if limit := ct.EventLimit(); max == 0 || max > limit {
			max = limit
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]interface{}{"events": ct.Events(max), "max": max})
	})

	handle("GET /events/stream", func(w http.ResponseWriter, r *http.Request) {
		kind, err := httpapi.QueryEnum(r, "kind", "", eventKindNames()...)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		heartbeat, err := httpapi.QueryDuration(r, "heartbeat", defaultHeartbeat)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		fl, ok := w.(http.Flusher)
		if !ok {
			httpapi.WriteError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
			return
		}
		// Subscribe before writing headers: events appended from here on
		// are delivered in order (a stalled client loses events only once
		// its buffer of streamBufferEvents fills).
		sub := ct.log.subscribe(streamBufferEvents)
		defer ct.log.unsubscribe(sub)
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		// An immediate comment so clients observe the open stream without
		// waiting for the first event or heartbeat.
		fmt.Fprint(w, ": stream open\n\n")
		fl.Flush()
		ticker := time.NewTicker(heartbeat)
		defer ticker.Stop()
		for {
			select {
			case <-r.Context().Done():
				return
			case <-ticker.C:
				fmt.Fprint(w, ": heartbeat\n\n")
				fl.Flush()
			case ev := <-sub.ch:
				if kind != "" && string(ev.Kind) != kind {
					continue
				}
				data, err := json.Marshal(ev)
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
				fl.Flush()
			}
		}
	})

	handle("GET /placement", func(w http.ResponseWriter, r *http.Request) {
		if app := r.URL.Query().Get("app"); app != "" {
			sc, err := ct.PlacementScore(app)
			if err != nil {
				httpapi.WriteError(w, http.StatusNotFound, err)
				return
			}
			httpapi.WriteJSON(w, http.StatusOK, sc)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, ct.Placement())
	})

	handle("GET /alerts", func(w http.ResponseWriter, r *http.Request) {
		// Reading alerts evaluates them: transitions land in the audit log
		// (and the SSE stream) even without the vitald evaluation ticker.
		ct.EvalAlerts()
		httpapi.WriteJSON(w, http.StatusOK, map[string]interface{}{
			"alerts": ct.AlertStatus(),
			"firing": ct.Alerts.Firing(),
		})
	})

	handle("GET /apps", func(w http.ResponseWriter, r *http.Request) {
		st := ct.Status()
		apps := make([]string, 0, len(st.Apps))
		for a := range st.Apps {
			apps = append(apps, a)
		}
		sort.Strings(apps)
		httpapi.WriteJSON(w, http.StatusOK, map[string]interface{}{"apps": apps})
	})

	handle("GET /health", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, ct.Health())
	})

	handle("GET /cache", func(w http.ResponseWriter, r *http.Request) {
		st := ct.CacheStats()
		httpapi.WriteJSON(w, http.StatusOK, map[string]interface{}{
			"hits":     st.Hits,
			"misses":   st.Misses,
			"entries":  st.Entries,
			"hit_rate": st.HitRate(),
		})
	})

	handle("GET /verify", func(w http.ResponseWriter, r *http.Request) {
		rep := ct.Verify()
		code := http.StatusOK
		if !rep.OK() {
			code = http.StatusConflict
		}
		httpapi.WriteJSON(w, code, map[string]interface{}{
			"ok":         rep.OK(),
			"violations": rep.Violations,
		})
	})

	handle("GET /queue", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, ct.async.Stats())
	})

	handle("GET /deployments", func(w http.ResponseWriter, r *http.Request) {
		max, err := httpapi.QueryInt(r, "max", 64)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		state, err := httpapi.QueryEnum(r, "state", "", ticketStateNames()...)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		tickets := ct.async.List(TicketState(state), max)
		httpapi.WriteJSON(w, http.StatusOK, map[string]interface{}{"deployments": tickets, "max": max})
	})

	handle("GET /deployments/{id}", func(w http.ResponseWriter, r *http.Request) {
		t, ok := ct.async.Get(r.PathValue("id"))
		if !ok {
			httpapi.WriteError(w, http.StatusNotFound, fmt.Errorf("no deployment ticket %q (finished tickets are retained up to %d)", r.PathValue("id"), maxRetainedTickets))
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, t)
	})

	type deployReq struct {
		App           string `json:"app"`
		MemQuotaBytes uint64 `json:"mem_quota_bytes"`
	}
	handle("POST /deploy", func(w http.ResponseWriter, r *http.Request) {
		async, err := httpapi.QueryBool(r, "async")
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		prioName, err := httpapi.QueryEnum(r, "priority", string(PriorityLatency),
			string(PriorityLatency), string(PriorityBatch))
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		var req deployReq
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
			return
		}
		if req.App == "" {
			httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("missing app name"))
			return
		}
		defaulted := req.MemQuotaBytes == 0
		if defaulted {
			req.MemQuotaBytes = defaultMemQuota
		}
		if async {
			// Fail fast on an app the controller cannot possibly deploy, so
			// a typo'd name doesn't consume a queue slot and a worker turn.
			if _, ok := ct.Bitstreams.Lookup(req.App); !ok {
				httpapi.WriteError(w, http.StatusNotFound, fmt.Errorf("sched: no compiled bitstreams for %q", req.App))
				return
			}
			ticket, err := ct.async.Enqueue(r.Context(), req.App, req.MemQuotaBytes, defaulted, Priority(prioName))
			if err != nil {
				// The queue is the backpressure boundary: shed with 429 and
				// a Retry-After hint instead of buffering without bound.
				w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfterSeconds))
				httpapi.WriteError(w, http.StatusTooManyRequests, err)
				return
			}
			httpapi.WriteJSON(w, http.StatusAccepted, map[string]interface{}{"ticket": ticket})
			return
		}
		dep, err := ct.DeployCtx(r.Context(), req.App, req.MemQuotaBytes)
		if err != nil {
			// Capacity exhaustion is retryable-later (503); name conflicts
			// and every other rejection are the caller's state (409).
			code := http.StatusConflict
			if errors.Is(err, ErrNoCapacity) {
				code = http.StatusServiceUnavailable
			}
			httpapi.WriteError(w, code, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, summarize(dep, req.MemQuotaBytes, defaulted))
	})

	type undeployReq struct {
		App string `json:"app"`
	}
	handle("POST /undeploy", func(w http.ResponseWriter, r *http.Request) {
		var req undeployReq
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
			return
		}
		if err := ct.Undeploy(req.App); err != nil {
			httpapi.WriteError(w, http.StatusNotFound, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"undeployed": req.App})
	})

	type faultReq struct {
		Board *int   `json:"board"`
		Kind  string `json:"kind"`
	}
	handle("POST /fault", func(w http.ResponseWriter, r *http.Request) {
		var req faultReq
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
			return
		}
		if req.Board == nil {
			httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("missing board number"))
			return
		}
		kind, err := ParseFaultKind(req.Kind)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		ev, err := ct.InjectFault(*req.Board, kind)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, ev)
	})

	return mux
}

// eventKindNames flattens the event-kind enum for the shared query-param
// validator.
func eventKindNames() []string {
	out := make([]string, len(allEventKinds))
	for i, k := range allEventKinds {
		out[i] = string(k)
	}
	return out
}

// ticketStateNames flattens the ticket-state enum for the shared
// query-param validator.
func ticketStateNames() []string {
	out := make([]string, len(allTicketStates))
	for i, s := range allTicketStates {
		out[i] = string(s)
	}
	return out
}
