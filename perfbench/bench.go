package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// bench is one workload run: the booted tiers, the tenant clients and
// the checks that failed.
type bench struct {
	w       *mix
	seed    int64
	seconds time.Duration
	rec     *recorder // nil on an untraced run
	tokens  map[string]string
	t       *tiers
	http    *http.Client
	clients []*client
	cycles  cycleBook
	stream  [][]streamApp
	// fresh is set by boot and cleared by a cold_compile pass.
	fresh bool

	mu         sync.Mutex
	violations []string
	firstErr   error
}

func newBench(w *mix, seed int64, seconds time.Duration, traced bool) (*bench, error) {
	b := &bench{w: w, seed: seed, seconds: seconds, tokens: map[string]string{}}
	if traced {
		b.rec = newRecorder()
	}
	for i := 0; i < w.tenants(b); i++ {
		b.tokens[tokenOf(tenantName(i))] = tenantName(i)
	}
	return b, b.boot()
}

// boot starts fresh tiers, replacing any running ones, and fresh clients
// whose op sequences restart from the seed.
func (b *bench) boot() error {
	b.close()
	t, err := boot(b.tokens, b.rec)
	if err != nil {
		return err
	}
	b.t = t
	b.http = &http.Client{Timeout: requestTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	b.clients = make([]*client, clients)
	for i := range b.clients {
		c := &client{id: i, b: b, rng: rand.New(rand.NewSource(b.seed*1000 + int64(i)))}
		c.startOp(false)
		b.clients[i] = c
	}
	b.cycles = cycleBook{}
	b.fresh = true
	return nil
}

func (b *bench) close() {
	if b.t == nil {
		return
	}
	b.t.close()
	b.http.CloseIdleConnections()
	b.t = nil
}

func (b *bench) expect(ok bool, format string, v ...interface{}) {
	if ok {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.violations = append(b.violations, fmt.Sprintf(format, v...))
}

func (b *bench) noteErr(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.firstErr == nil {
		b.firstErr = err
	}
}

// segment is one measured stretch. On a traced run it mixes untraced
// and traced ops; the untraced ones are the reference that prices the
// tracing.
type segment struct {
	elapsed time.Duration
	ops     int   // ops that succeeded
	t       tally // every op
	// traced holds the traced ops alone; tracedTime and untracedTime
	// split elapsed between the two kinds, untracedOps counts the
	// untraced ops that succeeded.
	traced                   tally
	tracedTime, untracedTime time.Duration
	untracedOps              int
	delta                    counters // after minus before
	after                    counters
	startRetained            int
	mem0, mem1               runtime.MemStats
}

// traceSlice is how long a traced run traces ops, or leaves them
// untraced, before switching: interleaving puts drift over the run
// (growing registries, ticket tables, heaps) on both sides of the
// tracing-overhead comparison alike.
const traceSlice = 250 * time.Millisecond

// tracedAt reports whether an op starting at offset d of a traced
// closed loop is traced: every second slice is.
func tracedAt(d time.Duration) bool { return int64(d/traceSlice)%2 == 1 }

// splitTime divides an elapsed closed-loop time into its traced and
// untraced slices.
func splitTime(e time.Duration) (traced, untraced time.Duration) {
	full := int64(e / traceSlice)
	traced = time.Duration(full/2) * traceSlice
	untraced = time.Duration(full-full/2) * traceSlice
	if full%2 == 1 {
		traced += e % traceSlice
	} else {
		untraced += e % traceSlice
	}
	return traced, untraced
}

// startOp points client c at the tally its next op records into.
func (c *client) startOp(traced bool) {
	c.tracing = traced
	c.cur = &c.untraced
	if traced {
		c.cur = &c.traced
	}
}

// collect merges the clients' tallies into seg.
func (b *bench) collect(seg *segment) {
	for _, c := range b.clients {
		seg.t.merge(&c.untraced)
		seg.t.merge(&c.traced)
		seg.traced.merge(&c.traced)
		seg.untracedOps += c.untraced.attempted - c.untraced.failed
	}
	seg.ops = seg.t.attempted - seg.t.failed
}

// closedLoop runs every client's op loop until d has passed; ops in
// flight at the deadline finish and count. With trace, ops in every
// second slice are traced.
func (b *bench) closedLoop(d time.Duration, trace bool) *segment {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range b.clients {
		c.untraced, c.traced = tally{}, tally{}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for now := time.Now(); now.Before(deadline) && (b.w.more == nil || b.w.more(c)); now = time.Now() {
				c.startOp(trace && tracedAt(now.Sub(start)))
				err := b.w.op(c)
				c.cur.record(err)
				if err != nil {
					b.noteErr(err)
				}
			}
		}(c)
	}
	wg.Wait()
	seg := &segment{elapsed: time.Since(start)}
	b.collect(seg)
	if trace {
		seg.tracedTime, seg.untracedTime = splitTime(seg.elapsed)
	} else {
		seg.untracedTime = seg.elapsed
	}
	return seg
}

// coldPass submits every cold_compile design once, in a seeded order;
// for each, both clients submit it at once as two tenants and the op
// ends when both have executed and undeployed.
func (b *bench) coldPass(pass int, traced bool) *segment {
	for _, c := range b.clients {
		c.untraced, c.traced = tally{}, tally{}
		c.startOp(traced)
	}
	order := rand.New(rand.NewSource(b.seed*1000 + 100 + int64(pass))).Perm(len(coldDesigns))
	start := time.Now()
	for _, i := range order {
		err := b.parallel(func(c *client) *opError {
			return c.cycle(tenantName(c.id), coldDesigns[i], "latency", churnTokens)
		})
		oerr, _ := err.(*opError)
		b.clients[0].cur.record(oerr)
		if oerr != nil {
			b.noteErr(oerr)
		}
	}
	seg := &segment{elapsed: time.Since(start)}
	b.collect(seg)
	if traced {
		seg.tracedTime = seg.elapsed
	} else {
		seg.untracedTime = seg.elapsed
	}
	b.fresh = false
	return seg
}

// measure runs the workload for d and checks the outcome. cold_compile
// runs whole passes until d has passed, each on freshly booted tiers
// (the reboot is set-up and not timed), so every run covers every
// design once per pass whatever the seed. A traced run alternates
// untraced and traced passes and makes at least one of each.
func (b *bench) measure(d time.Duration) (*segment, error) {
	if b.w.op != nil {
		return b.checked(func() *segment { return b.closedLoop(d, b.rec != nil) }), nil
	}
	total := &segment{}
	minPasses := 1
	if b.rec != nil {
		minPasses = 2
	}
	for pass := 0; total.elapsed < d || pass < minPasses; pass++ {
		if !b.fresh {
			if err := b.boot(); err != nil {
				return nil, err
			}
		}
		traced := b.rec != nil && pass%2 == 1
		seg := b.checked(func() *segment { return b.coldPass(pass, traced) })
		total.elapsed += seg.elapsed
		total.ops += seg.ops
		total.t.merge(&seg.t)
		total.traced.merge(&seg.traced)
		total.tracedTime += seg.tracedTime
		total.untracedTime += seg.untracedTime
		total.untracedOps += seg.untracedOps
		total.delta.add(seg.delta)
		total.after = seg.after
		total.mem0, total.mem1 = seg.mem0, seg.mem1
	}
	return total, nil
}

// checked runs one segment between two counter snapshots, then checks
// the backend's invariants, audit parity and the workload's profile.
func (b *bench) checked(run func() *segment) *segment {
	before, err := b.counters()
	b.expect(err == nil, "reading counters: %v", err)
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	seg := run()
	seg.mem0 = m0
	runtime.ReadMemStats(&seg.mem1)
	seg.after, err = b.counters()
	b.expect(err == nil, "reading counters: %v", err)
	seg.delta = seg.after
	seg.delta.sub(before)
	seg.startRetained = before.retained

	var v struct {
		OK         bool     `json:"ok"`
		Violations []string `json:"violations"`
	}
	err = b.getJSON(b.t.backend+"/verify", &v)
	b.expect(err == nil && v.OK, "GET /verify: %v %v", err, v.Violations)
	b.expect(seg.delta.deploys == float64(seg.t.deploys), "audit: %v deploy events, clients saw %d deploys", seg.delta.deploys, seg.t.deploys)
	b.expect(seg.delta.undeploys == float64(seg.t.undeploys), "audit: %v undeploy events, clients made %d undeploys", seg.delta.undeploys, seg.t.undeploys)
	b.w.check(b, seg)
	return seg
}

func (b *bench) getJSON(url string, out interface{}) error {
	resp, err := b.http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// counters is a snapshot of the tiers' own counters.
type counters struct {
	compiles, submits      float64 // POST /compile on the backend, POST /submit on the gateway
	hits, misses           float64 // compile cache
	deploys, undeploys     float64 // audit-log events
	shed                   float64 // async queue sheds
	coalesced              float64 // gateway coalesce hits
	stage                  map[string]float64
	missSum, missCount     float64 // compile wall time of cache misses, s
	scrapeSum, scrapeCount float64 // TSDB scrapes, both tiers, s
	evicted                float64 // trace ring evictions, both tiers
	retained               int     // tickets retained (absolute)
}

var compileStages = []string{"synthesis", "partition", "interface_gen", "local_pnr", "relocation", "global_pnr"}

func (c *counters) fields() []*float64 {
	return []*float64{&c.compiles, &c.submits, &c.hits, &c.misses, &c.deploys, &c.undeploys,
		&c.shed, &c.coalesced, &c.missSum, &c.missCount, &c.scrapeSum, &c.scrapeCount, &c.evicted}
}

func (c *counters) sub(o counters) {
	of := o.fields()
	for i, f := range c.fields() {
		*f -= *of[i]
	}
	st := map[string]float64{}
	for k, v := range c.stage {
		st[k] = v - o.stage[k]
	}
	c.stage = st
}

func (c *counters) add(o counters) {
	of := o.fields()
	for i, f := range c.fields() {
		*f += *of[i]
	}
	if c.stage == nil {
		c.stage = map[string]float64{}
	}
	for k, v := range o.stage {
		c.stage[k] += v
	}
	c.retained = o.retained
}

func (b *bench) counters() (counters, error) {
	var c counters
	be, err := b.scrape(b.t.backend + "/metrics?format=prometheus")
	if err != nil {
		return c, err
	}
	gw, err := b.scrape(b.t.front + "/metrics")
	if err != nil {
		return c, err
	}
	c.compiles = be.sum("vital_http_requests_total", `route="POST /compile"`)
	c.submits = gw.sum("vital_http_requests_total", `route="POST /submit"`)
	c.hits = be.sum("vital_cache_hits_total")
	c.misses = be.sum("vital_cache_misses_total")
	c.deploys = be.sum("vital_events_total", `kind="deploy"`)
	c.undeploys = be.sum("vital_events_total", `kind="undeploy"`)
	c.shed = be.sum("vital_queue_shed_total")
	c.coalesced = gw.sum("vital_gateway_coalesce_hits_total")
	c.stage = map[string]float64{}
	for _, st := range compileStages {
		c.stage[st] = be.sum("vital_compile_stage_seconds_sum", `stage="`+st+`"`)
	}
	c.missSum = be.sum("vital_compile_seconds_sum", `cache="miss"`)
	c.missCount = be.sum("vital_compile_seconds_count", `cache="miss"`)
	c.scrapeSum = be.sum("vital_tsdb_scrape_seconds_sum") + gw.sum("vital_tsdb_scrape_seconds_sum")
	c.scrapeCount = be.sum("vital_tsdb_scrape_seconds_count") + gw.sum("vital_tsdb_scrape_seconds_count")
	c.evicted = be.sum("vital_trace_evicted_total") + gw.sum("vital_trace_evicted_total")
	var q struct {
		Retained int `json:"tickets_retained"`
	}
	if err := b.getJSON(b.t.backend+"/queue", &q); err != nil {
		return c, err
	}
	c.retained = q.Retained
	return c, nil
}

// exposition is a parsed Prometheus text exposition: one entry per
// sample line, keyed by metric name.
type exposition map[string][]sample

type sample struct {
	labels string
	value  float64
}

func (b *bench) scrape(url string) (exposition, error) {
	resp, err := b.http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	exp := exposition{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, labels, value, ok := parseSample(sc.Text())
		if ok {
			exp[name] = append(exp[name], sample{labels, value})
		}
	}
	return exp, sc.Err()
}

// parseSample splits `name{labels} value [exemplar]`; label values may
// hold spaces and braces inside quotes.
func parseSample(line string) (name, labels string, value float64, ok bool) {
	if line == "" || line[0] == '#' {
		return "", "", 0, false
	}
	rest := line
	if i := strings.IndexAny(line, "{ "); i >= 0 && line[i] == '{' {
		name = line[:i]
		inQuote, esc := false, false
		end := -1
		for j := i + 1; j < len(line) && end < 0; j++ {
			switch ch := line[j]; {
			case esc:
				esc = false
			case ch == '\\':
				esc = true
			case ch == '"':
				inQuote = !inQuote
			case ch == '}' && !inQuote:
				end = j
			}
		}
		if end < 0 {
			return "", "", 0, false
		}
		labels = line[i+1 : end]
		rest = line[end+1:]
	} else {
		name, rest, _ = strings.Cut(line, " ")
	}
	f := strings.Fields(rest)
	if len(f) == 0 {
		return "", "", 0, false
	}
	v, err := strconv.ParseFloat(f[0], 64)
	return name, labels, v, err == nil
}

// sum adds the samples of name whose labels contain every given
// `key="value"` pair.
func (e exposition) sum(name string, match ...string) float64 {
	var s float64
	for _, smp := range e[name] {
		all := true
		for _, m := range match {
			all = all && strings.Contains(smp.labels, m)
		}
		if all {
			s += smp.value
		}
	}
	return s
}
