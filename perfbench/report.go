package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"vital/internal/core"
	"vital/internal/workload"
)

// metric is one reported number. Samples is how many measurements the
// value summarizes and Tail, for a percentile, how many lie beyond it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Tail    int     `json:"tail,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// latency reports the p50 and p90 of samples, in ms.
func (m metrics) latency(prefix string, samples []float64) {
	n := len(samples)
	m[prefix+"_p50"] = metric{Value: percentile(samples, 0.5), Unit: "ms", Samples: n, Tail: tailCount(n, 0.5)}
	m[prefix+"_p90"] = metric{Value: percentile(samples, 0.9), Unit: "ms", Samples: n, Tail: tailCount(n, 0.9)}
}

// endToEnd derives the user-visible metrics of an untraced run over
// its whole measured phase: throughput is the ops that succeeded per
// second of it, latencies are percentiles of every op's samples. Those
// gated in BENCHMARK.json go in gated; the p90s and execute latency are
// reported only. cold_compile leaves fewer than ten samples beyond a
// p90, and outside exec_stream an execute runs 2 tokens, a fixed cost
// already inside ready_ms.
func endToEnd(seg *segment, setups []float64, heap uint64) (gated, extra metrics) {
	m, extra := metrics{}, metrics{}
	m["ops_per_s"] = metric{Value: float64(seg.ops) / seg.elapsed.Seconds(), Unit: "ops/s", Samples: seg.ops}
	extra.latency("submit_ms", seg.t.submitMs)
	extra.latency("ready_ms", seg.t.readyMs)
	extra.latency("exec_ms", seg.t.execMs)
	for _, n := range []string{"submit_ms_p50", "ready_ms_p50"} {
		m[n] = extra[n]
		delete(extra, n)
	}
	m["setup_s"] = metric{Value: median(setups), Unit: "s", Samples: len(setups)}
	m.set("heap_mb", "MB", float64(heap)/(1<<20))
	return m, extra
}

// errorRate is failed over attempted ops.
func errorRate(t tally) float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// layers derives the per-layer metrics of a traced run from its traced
// ops and their spans. The shed and retryable-failure counts go in
// extra: any such failure fails the run, so on a passing run they are 0.
func (b *bench) layers(seg *segment, spans []span, keyUs []float64) (m, extra metrics) {
	m, extra = metrics{}, metrics{}
	tr := &seg.traced
	ops := float64(tr.attempted - tr.failed)
	per := func(x float64) float64 {
		if ops == 0 {
			return 0
		}
		return x / ops
	}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}

	byName := map[string][]span{}
	children := map[int64][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := func(s span) int64 {
		ivs := make([]interval, 0, len(children[s.ID]))
		for _, c := range children[s.ID] {
			ivs = append(ivs, c.interval())
		}
		return selfTime(s.interval(), ivs)
	}
	durMs := func(name string) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, float64(s.dur())/1e6)
		}
		return xs
	}
	p50 := func(name string) float64 { return percentile(durMs(name), 0.5) }

	// Gateway: admission time, and the part of it not spent waiting on
	// the backend.
	submits := byName["gateway POST /submit"]
	var selfMs []float64
	hops := 0
	for _, s := range submits {
		selfMs = append(selfMs, float64(self(s))/1e6)
		hops += len(children[s.ID])
	}
	m.set("gateway.submit_server_ms", "ms", p50("gateway POST /submit"))
	m.set("gateway.self_ms", "ms", percentile(selfMs, 0.5))
	m.set("gateway.backend_hops_per_submit", "count", ratio(float64(hops), float64(len(submits))))
	m.set("gateway.coalesce_ratio", "ratio", ratio(seg.delta.coalesced, seg.delta.submits))

	// Keying and the backend routes.
	m.set("core.design_key_us", "us", median(keyUs))
	m.set("core.compile_ms", "ms", p50("backend POST /compile"))
	m.set("core.compile_calls_per_op", "count", per(float64(len(byName["backend POST /compile"]))))
	m.set("core.cache_hit_ratio", "ratio", ratio(seg.delta.hits, seg.delta.hits+seg.delta.misses))
	m.set("core.execute_ms", "ms", p50("backend POST /execute"))
	m.set("core.undeploy_ms", "ms", p50("backend POST /undeploy"))
	m.set("core.ticket_get_ms", "ms", p50("backend GET /deployments/{id}"))
	m.set("client.polls_per_op", "count", per(float64(tr.polls)))

	// Async queue and allocator, from ticket timestamps.
	var waitMs, deployMs []float64
	for _, tk := range tr.tickets {
		if tk.Started == nil || tk.Finished == nil {
			continue
		}
		waitMs = append(waitMs, float64(tk.Started.Sub(tk.Enqueued))/1e6)
		deployMs = append(deployMs, float64(tk.Finished.Sub(*tk.Started))/1e6)
	}
	m.set("sched.enqueue_ms", "ms", p50("backend POST /deploy"))
	m.set("sched.queue_wait_ms", "ms", percentile(waitMs, 0.5))
	m.set("sched.deploy_ms", "ms", percentile(deployMs, 0.5))
	m.set("sched.tickets_retained", "count", float64(seg.after.retained))
	extra.set("sched.shed", "count", seg.delta.shed)
	extra.set("sched.retryable_failures", "count", float64(seg.t.kinds[failCapacity]))

	// Compile pipeline: per-stage tool time per cache miss.
	for _, st := range compileStages {
		m.set("compile."+st+"_s", "s", ratio(seg.delta.stage[st], seg.delta.misses))
	}
	m.set("compile.wall_s", "s", ratio(seg.delta.missSum, seg.delta.missCount))

	// Data plane.
	tokens := float64(churnTokens)
	if b.w.name == "exec_stream" {
		tokens = streamTokens
	}
	var nsPerToken []float64
	for _, s := range byName["backend POST /execute"] {
		nsPerToken = append(nsPerToken, float64(s.dur())/tokens)
	}
	m.set("execute.host_ns_per_token", "ns", percentile(nsPerToken, 0.5))
	m.set("execute.sim_cycles_per_token", "cycles", mean(tr.simCyclesPerToken))
	m.set("execute.gated_frac", "ratio", mean(tr.gatedFrac))

	// Telemetry, cumulative since boot on both tiers.
	m.set("telemetry.scrape_ms", "ms", 1e3*ratio(seg.after.scrapeSum, seg.after.scrapeCount))
	m.set("telemetry.trace_evicted", "count", seg.after.evicted)

	// Go runtime, over the whole measured phase and all its ops.
	all := float64(seg.ops)
	m.set("runtime.alloc_kb_per_op", "KB", ratio(float64(seg.mem1.TotalAlloc-seg.mem0.TotalAlloc)/1024, all))
	m.set("runtime.mallocs_per_op", "count", ratio(float64(seg.mem1.Mallocs-seg.mem0.Mallocs), all))
	m.set("runtime.gc_pause_ms_per_s", "ms/s", float64(seg.mem1.PauseTotalNs-seg.mem0.PauseTotalNs)/1e6/seg.elapsed.Seconds())

	// Harness: what tracing costs, and the op time outside any server.
	refRate := ratio(float64(seg.untracedOps), seg.untracedTime.Seconds())
	m.set("bench.trace_overhead_frac", "ratio", 1-ratio(ratio(ops, seg.tracedTime.Seconds()), refRate))
	clientMs, residual, ready := b.account(spans, children, self)
	m.set("bench.client_ms", "ms", percentile(clientMs, 0.5))
	b.expect(ready > 0, "traced run recorded no ops")
	b.expect(residual <= 0.01*ready, "span accounting: self times plus client time miss ready time by %.3f of %.3f ms", residual/1e6, ready/1e6)
	return m, extra
}

// account splits each op's ready interval (its first request sent to
// its first execute answered) into client time, outside any gateway
// span, and the self times of the server-side spans within it. For
// properly nested spans the two add up to the ready time exactly; the
// summed absolute miss is returned with the summed ready time.
func (b *bench) account(spans []span, children map[int64][]span, self func(span) int64) (clientMs []float64, residual, ready float64) {
	ops := map[int64][]span{}
	var order []int64
	for _, s := range spans {
		if _, ok := ops[s.Op]; !ok {
			order = append(order, s.Op)
		}
		ops[s.Op] = append(ops[s.Op], s)
	}
	for _, op := range order {
		ss := ops[op]
		var first, exec *span
		for i := range ss {
			s := &ss[i]
			if !strings.HasPrefix(s.Name, "client ") {
				continue
			}
			if first == nil || s.Start < first.Start {
				first = s
			}
			if s.Name == "client POST /execute" && (exec == nil || s.Start < exec.Start) {
				exec = s
			}
		}
		if first == nil || exec == nil {
			continue
		}
		win := interval{first.Start, exec.End}
		var server []interval
		var selfSum int64
		var walk func(s span)
		walk = func(s span) {
			selfSum += self(s)
			for _, c := range children[s.ID] {
				walk(c)
			}
		}
		for _, s := range ss {
			if !strings.HasPrefix(s.Name, "client ") || s.Start < win.start || s.End > win.end {
				continue
			}
			for _, g := range children[s.ID] {
				server = append(server, g.interval())
				walk(g)
			}
		}
		client := win.end - win.start - covered(win, server)
		clientMs = append(clientMs, float64(client)/1e6)
		ready += float64(win.end - win.start)
		residual += math.Abs(float64(win.end - win.start - client - selfSum))
	}
	return clientMs, residual, ready
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// designKeyMicros times core.DesignKey directly on the workload's
// designs, as the gateway calls it on every submit.
func (b *bench) designKeyMicros() []float64 {
	designs := churnDesigns
	switch b.w.name {
	case "cold_compile":
		designs = coldDesigns
	case "exec_stream":
		designs = []string{streamDesign}
	}
	params := b.t.stack.CompileParams()
	var us []float64
	for rep := 0; rep < 200; rep++ {
		for _, name := range designs {
			spec, err := workload.ParseSpec(name)
			if err != nil {
				b.expect(false, "design %s: %v", name, err)
				return nil
			}
			d := workload.BuildDesign(spec)
			start := time.Now()
			core.DesignKey(d, params)
			us = append(us, float64(time.Since(start))/1e3)
		}
	}
	return us
}

// host identifies the machine a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
}

func fingerprint(commit string) host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH, Commit: commit}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// printMetrics writes one human-readable line per metric.
func printMetrics(m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		line := fmt.Sprintf("  %-34s %14.6g %-7s", n, v.Value, v.Unit)
		if v.Samples > 0 {
			line += fmt.Sprintf(" n=%d", v.Samples)
		}
		if v.Tail > 0 {
			line += fmt.Sprintf(" beyond=%d", v.Tail)
		}
		fmt.Println(line)
	}
}
