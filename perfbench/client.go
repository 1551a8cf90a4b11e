package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"vital/internal/core"
	"vital/internal/sched"
	"vital/internal/workload"
)

// Failure kinds behind error_rate. Every op ends in success or exactly
// one of these.
const (
	failShed     = "shed_429"           // a rate limit or queue shed answered 429
	failCapacity = "capacity_retryable" // the ticket failed retryably (no capacity)
	failTicket   = "ticket_failed"      // the ticket failed for any other reason
	failHTTP     = "non_2xx"            // any other non-2xx answer or transport error
	failTimeout  = "timeout"            // a request or a ticket outlived its deadline
	failOutput   = "wrong_output"       // a response failed a correctness check
)

var failKinds = []string{failShed, failCapacity, failTicket, failHTTP, failTimeout, failOutput}

// opError is a failed op, classified.
type opError struct {
	kind string
	err  error
}

func (e *opError) Error() string { return e.kind + ": " + e.err.Error() }

func fail(kind string, format string, v ...interface{}) *opError {
	return &opError{kind, fmt.Errorf(format, v...)}
}

const (
	pollDeadline = 30 * time.Second
	// The tenant-side timeout only guards against hangs: a submit that
	// coalesces onto a cold compile legally holds its connection for the
	// whole compile.
	requestTimeout = 60 * time.Second
)

// pollBackoff is the wait before each repeated ticket poll: the first
// poll goes out at once, later ones back off to at most 2 ms.
var pollBackoff = []time.Duration{0, 100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond}

// tally is one client's record of the measured phase.
type tally struct {
	attempted, failed int
	kinds             map[string]int
	// Latency samples in ms. A failed op adds +Inf where its latency
	// would have been, so failures count as missing any limit.
	submitMs, readyMs, execMs []float64
	polls                     int
	deploys, undeploys        int
	coalesced                 int
	tickets                   []opTicket // traced ops only
	simCyclesPerToken         []float64
	gatedFrac                 []float64
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for k, v := range o.kinds {
		if t.kinds == nil {
			t.kinds = map[string]int{}
		}
		t.kinds[k] += v
	}
	t.submitMs = append(t.submitMs, o.submitMs...)
	t.readyMs = append(t.readyMs, o.readyMs...)
	t.execMs = append(t.execMs, o.execMs...)
	t.polls += o.polls
	t.deploys += o.deploys
	t.undeploys += o.undeploys
	t.coalesced += o.coalesced
	t.tickets = append(t.tickets, o.tickets...)
	t.simCyclesPerToken = append(t.simCyclesPerToken, o.simCyclesPerToken...)
	t.gatedFrac = append(t.gatedFrac, o.gatedFrac...)
}

// opTicket is a finished ticket and the traced op (0 untraced) it served.
type opTicket struct {
	op int64
	sched.Ticket
}

// record closes one op: err nil is a success.
func (t *tally) record(err *opError) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.kinds == nil {
		t.kinds = map[string]int{}
	}
	t.kinds[err.kind]++
}

// client is one closed-loop tenant client: it sends its next request
// only after the previous one answered.
type client struct {
	id  int
	b   *bench
	rng *rand.Rand
	// untraced and traced record the ops of each kind; cur is the one
	// the op in progress records into, and tracing says which it is.
	untraced, traced tally
	cur              *tally
	tracing          bool
	// Workload state: the position in the client's op sequence, the
	// current round's order and the design popularity draw.
	next int
	perm []int
	zipf *rand.Zipf
}

// root opens the root span of a traced op; end closes it.
func (c *client) root() (root ref, end func()) {
	rec := c.b.rec
	if !c.tracing {
		return ref{}, func() {}
	}
	s := rec.begin(ref{}, "op")
	return ref{s.Op, s.ID}, func() { rec.finish(s) }
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

var inf = math.Inf(1)

// call sends one request and decodes a 2xx JSON answer into out. It
// returns the round trip, body read included.
func (c *client) call(parent ref, method, url, token string, body, out interface{}) (time.Duration, *opError) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, fail(failOutput, "encoding request: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, fail(failHTTP, "%s %s: %v", method, url, err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := c.b.rec
	traced := parent.op != 0
	var s span
	if traced {
		s = rec.begin(parent, "client "+routeName(method, req.URL.Path))
		req.Header.Set(spanHeader, formatRef(ref{s.Op, s.ID}))
	}
	start := time.Now()
	resp, err := c.b.http.Do(req)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return time.Since(start), fail(failTimeout, "%s %s: %v", method, req.URL.Path, err)
		}
		return time.Since(start), fail(failHTTP, "%s %s: %v", method, req.URL.Path, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if traced {
		rec.finish(s)
	}
	if err != nil {
		return d, fail(failHTTP, "%s %s: reading body: %v", method, req.URL.Path, err)
	}
	if resp.StatusCode/100 != 2 {
		kind := failHTTP
		if resp.StatusCode == http.StatusTooManyRequests {
			kind = failShed
		}
		return d, fail(kind, "%s %s: %s: %s", method, req.URL.Path, resp.Status, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return d, fail(failOutput, "%s %s: decoding answer: %v", method, req.URL.Path, err)
		}
	}
	return d, nil
}

// submitAnswer is the part of the gateway's 202 body the client reads.
type submitAnswer struct {
	App       string       `json:"app"`
	Coalesced bool         `json:"coalesced"`
	Ticket    sched.Ticket `json:"ticket"`
}

// cycle is one tenant op through the gateway's public routes: submit,
// poll the ticket to success, execute, undeploy. It records submit,
// ready (submit sent → first execute answered) and execute latency.
func (c *client) cycle(tenant, design, priority string, tokens uint64) *opError {
	spec, err := workload.ParseSpec(design)
	if err != nil {
		return fail(failOutput, "design %q: %v", design, err)
	}
	root, end := c.root()
	defer end()
	token := tokenOf(tenant)
	start := time.Now()
	var sub submitAnswer
	d, oerr := c.call(root, http.MethodPost, c.b.t.front+"/submit", token,
		map[string]string{"design": design, "priority": priority}, &sub)
	if oerr != nil {
		c.cur.submitMs = append(c.cur.submitMs, inf)
		c.cur.readyMs = append(c.cur.readyMs, inf)
		return oerr
	}
	c.cur.submitMs = append(c.cur.submitMs, ms(d))
	if sub.Coalesced {
		c.cur.coalesced++
	}

	tk, oerr := c.await(root, sub.Ticket.ID)
	if oerr == nil {
		if c.tracing {
			c.cur.tickets = append(c.cur.tickets, opTicket{root.op, tk})
		}
		switch {
		case tk.State != sched.TicketSucceeded && tk.Retryable:
			oerr = fail(failCapacity, "ticket %s: %s", tk.ID, tk.Error)
		case tk.State != sched.TicketSucceeded:
			oerr = fail(failTicket, "ticket %s: %s", tk.ID, tk.Error)
		case tk.Result == nil || len(tk.Result.Blocks) != spec.PaperBlocks():
			oerr = fail(failOutput, "ticket %s placed %v; Table 2 gives %s %d blocks", tk.ID, tk.Result, design, spec.PaperBlocks())
			c.cur.deploys++
		default:
			c.cur.deploys++
		}
	}
	if oerr != nil {
		c.cur.readyMs = append(c.cur.readyMs, inf)
		c.undeploy(root, token, sub.App)
		return oerr
	}

	oerr = c.execute(root, token, sub.App, strings.Join(tk.Result.Blocks, ","), tokens)
	if oerr != nil {
		c.cur.readyMs = append(c.cur.readyMs, inf)
		c.undeploy(root, token, sub.App)
		return oerr
	}
	c.cur.readyMs = append(c.cur.readyMs, ms(time.Since(start)))
	return c.undeploy(root, token, sub.App)
}

// await polls a ticket through the gateway until it is terminal.
func (c *client) await(root ref, id string) (sched.Ticket, *opError) {
	deadline := time.Now().Add(pollDeadline)
	for i := 0; ; i++ {
		time.Sleep(pollBackoff[min(i, len(pollBackoff)-1)])
		var tk sched.Ticket
		_, oerr := c.call(root, http.MethodGet, c.b.t.front+"/deployments/"+id, "", nil, &tk)
		c.cur.polls++
		if oerr != nil {
			return tk, oerr
		}
		if tk.State == sched.TicketSucceeded || tk.State == sched.TicketFailed {
			return tk, nil
		}
		if time.Now().After(deadline) {
			return tk, fail(failTimeout, "ticket %s still %s after %v", id, tk.State, pollDeadline)
		}
	}
}

// executeAnswer is the backend's POST /execute body, relayed verbatim.
type executeAnswer struct {
	Stats core.ExecutionStats `json:"stats"`
}

// execute runs tokens through a deployed app and checks the answer: the
// token count comes back, and the simulated cycle count repeats exactly
// for the same app on the same placement.
func (c *client) execute(root ref, token, app, placement string, tokens uint64) *opError {
	var ans executeAnswer
	d, oerr := c.call(root, http.MethodPost, c.b.t.front+"/execute", token,
		map[string]interface{}{"app": app, "tokens": tokens}, &ans)
	if oerr != nil {
		c.cur.execMs = append(c.cur.execMs, inf)
		return oerr
	}
	c.cur.execMs = append(c.cur.execMs, ms(d))
	st := ans.Stats
	if st.Tokens != tokens {
		return fail(failOutput, "execute %s: %d tokens answered, %d requested", app, st.Tokens, tokens)
	}
	if err := c.b.sameCycles(fmt.Sprintf("%s@%s#%d", app, placement, tokens), st.Cycles); err != nil {
		return fail(failOutput, "%v", err)
	}
	c.cur.simCyclesPerToken = append(c.cur.simCyclesPerToken, float64(st.Cycles)/float64(st.Tokens))
	c.cur.gatedFrac = append(c.cur.gatedFrac, st.OverheadFraction())
	return nil
}

func (c *client) undeploy(root ref, token, app string) *opError {
	if app == "" {
		return nil
	}
	if _, oerr := c.call(root, http.MethodPost, c.b.t.front+"/undeploy", token,
		map[string]string{"app": app}, nil); oerr != nil {
		return oerr
	}
	c.cur.undeploys++
	return nil
}

// cycleBook remembers the simulated cycle count of every (app, placement)
// executed, for the repeat check.
type cycleBook struct {
	mu     sync.Mutex
	cycles map[string]uint64
}

func (b *bench) sameCycles(key string, cycles uint64) error {
	b.cycles.mu.Lock()
	defer b.cycles.mu.Unlock()
	if b.cycles.cycles == nil {
		b.cycles.cycles = map[string]uint64{}
	}
	if prev, ok := b.cycles.cycles[key]; ok && prev != cycles {
		return fmt.Errorf("execute %s: %d simulated cycles, an earlier call took %d", key, cycles, prev)
	}
	b.cycles.cycles[key] = cycles
	return nil
}

func tenantName(i int) string      { return fmt.Sprintf("t%05d", i) }
func tokenOf(tenant string) string { return "tok-" + tenant }
