package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"vital/internal/cluster"
	"vital/internal/fpga"
	"vital/internal/sched"
)

// Workload inputs. Every op's design, tenant and priority come from the
// seed; the expected mix does not, so seeds differ only in sampling.
var (
	// churnDesigns are the five cheapest small Table 2 designs, most
	// popular first: the zipf draw picks ranks in this order.
	churnDesigns = []string{"lenet-S", "svhn-S", "nin-S", "cifar10-S", "alexnet-S"}
	// coldDesigns are the seven small Table 2 designs.
	coldDesigns = []string{"lenet-S", "alexnet-S", "svhn-S", "vgg16-S", "cifar10-S", "nin-S", "resnet18-S"}
	// streamDesign has two virtual blocks, so one channel joins them and
	// its link class follows the placement.
	streamDesign = "cifar10-S"
)

const (
	clients      = 2 // closed-loop clients, one per core of the reference host
	churnTenants = 64
	churnTokens  = 2
	streamTokens = 16384
	// batchOneIn sends one submit in this many to the batch class.
	batchOneIn = 5
	// retainedTickets is the backend's ticket retention cap; warm_churn
	// set-up pushes the ticket table past it.
	retainedTickets = 8192
	warmup          = 500 * time.Millisecond
	// onboardRate sizes onboard's tenant pool: enough fresh (tenant,
	// design) pairs for this many ops per second over warm-ups and the
	// measured phase. A faster program ends its measured phase early,
	// when the pairs run out, rather than reusing a pair.
	onboardRate = 1500
)

// mix is one workload: a traffic mix.
type mix struct {
	name string
	// tenants is how many tenants the gateway is configured with.
	tenants func(b *bench) int
	// setup brings freshly booted tiers to the measured state.
	setup func(b *bench) error
	// op is one closed-loop op of client c (nil for cold_compile, which
	// runs in lock-step passes).
	op func(c *client) *opError
	// more, when set, reports whether client c has inputs left.
	more func(c *client) bool
	// check adds workload-specific checks on one measured segment.
	check func(b *bench, seg *segment)
}

var mixes = map[string]*mix{
	"warm_churn": {
		name:    "warm_churn",
		tenants: func(*bench) int { return churnTenants },
		setup:   setupChurn,
		op:      opChurn,
		check: func(b *bench, seg *segment) {
			b.expect(seg.delta.compiles == 0, "warm_churn made %v /compile calls in the measured phase, want 0", seg.delta.compiles)
			b.expect(seg.startRetained >= retainedTickets, "warm_churn started with %d retained tickets, want the %d cap reached", seg.startRetained, retainedTickets)
		},
	},
	"onboard": {
		name:    "onboard",
		tenants: func(b *bench) int { return onboardTenants(b.seconds) },
		setup:   setupOnboard,
		op:      opOnboard,
		more:    func(c *client) bool { return onboardTenant(c) < onboardTenants(c.b.seconds) },
		check: func(b *bench, seg *segment) {
			n := float64(seg.t.attempted)
			b.expect(seg.delta.compiles == n, "onboard made %v /compile calls for %v ops, want exactly one per op", seg.delta.compiles, n)
			b.expect(seg.delta.hits == n && seg.delta.misses == 0, "onboard compile cache: %v hits, %v misses for %v ops, want one hit per op", seg.delta.hits, seg.delta.misses, n)
		},
	},
	"cold_compile": {
		name:    "cold_compile",
		tenants: func(*bench) int { return clients },
		setup:   func(*bench) error { return nil },
		check: func(b *bench, seg *segment) {
			b.expect(seg.delta.misses == float64(seg.ops), "cold_compile: %v compile-cache misses for %d designs, want one per design", seg.delta.misses, seg.ops)
			b.expect(seg.t.coalesced == seg.ops, "cold_compile: %d coalesced submits for %d designs, want every follower coalesced", seg.t.coalesced, seg.ops)
		},
	},
	"exec_stream": {
		name:    "exec_stream",
		tenants: func(*bench) int { return clients * 3 },
		setup:   setupStream,
		op:      opStream,
		check: func(b *bench, seg *segment) {
			b.expect(seg.delta.compiles == 0, "exec_stream made %v /compile calls in the measured phase, want 0", seg.delta.compiles)
			b.expect(seg.delta.submits == 0, "exec_stream made %v submits in the measured phase, want 0", seg.delta.submits)
		},
	},
}

func onboardTenants(seconds time.Duration) int {
	ops := onboardRate * (seconds + 2*warmup).Seconds()
	return int(ops)/len(churnDesigns) + clients
}

// parallel runs fn once per client and returns the first failure.
func (b *bench) parallel(fn func(c *client) *opError) error {
	errs := make([]*opError, len(b.clients))
	var wg sync.WaitGroup
	for i, c := range b.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setupChurn compiles every design and every tenant instance, then
// cycles deployments until the ticket table is past its retention cap,
// then warms the op loop.
func setupChurn(b *bench) error {
	if err := b.parallel(func(c *client) *opError {
		for i := c.id; i < churnTenants; i += clients {
			for _, d := range churnDesigns {
				if err := c.cycle(tenantName(i), d, "latency", churnTokens); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	ct := b.t.stack.Controller
	app := tenantName(0) + "." + churnDesigns[0]
	for i := 0; i < retainedTickets+256; i++ {
		tk, err := ct.Async().Enqueue(context.Background(), app, 1<<30, false, sched.PriorityLatency)
		if err != nil {
			return fmt.Errorf("filling the ticket table: %w", err)
		}
		for tk.State != sched.TicketSucceeded {
			if tk.State == sched.TicketFailed {
				return fmt.Errorf("filling the ticket table: ticket %s: %s", tk.ID, tk.Error)
			}
			time.Sleep(20 * time.Microsecond)
			tk, _ = ct.Async().Get(tk.ID)
		}
		if err := ct.Undeploy(app); err != nil {
			return fmt.Errorf("filling the ticket table: %w", err)
		}
	}
	return b.warm()
}

func opChurn(c *client) *opError {
	if c.zipf == nil {
		c.zipf = rand.NewZipf(c.rng, 1.4, 1, uint64(len(churnDesigns)-1))
	}
	tenant := tenantName(c.id + clients*c.rng.Intn(churnTenants/clients))
	design := churnDesigns[c.zipf.Uint64()]
	return c.cycle(tenant, design, priority(c.rng), churnTokens)
}

func priority(r *rand.Rand) string {
	if r.Intn(batchOneIn) == 0 {
		return "batch"
	}
	return "latency"
}

// setupOnboard compiles every design once under a set-up tenant, so each
// later submit only compiles its own instance: a cache hit.
func setupOnboard(b *bench) error {
	if err := b.parallel(func(c *client) *opError {
		for i := c.id; i < len(churnDesigns); i += clients {
			if err := c.cycle(tenantName(0), churnDesigns[i], "latency", churnTokens); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return b.warm()
}

// opOnboard submits a (tenant, design) pair never submitted before:
// client c walks its own tenants, each through all designs in a seeded
// order. Tenant 0 is the set-up tenant.
func opOnboard(c *client) *opError {
	per := len(churnDesigns)
	if c.next%per == 0 {
		c.perm = c.rng.Perm(per)
	}
	tenant := onboardTenant(c)
	design := churnDesigns[c.perm[c.next%per]]
	c.next++
	return c.cycle(tenantName(tenant), design, priority(c.rng), churnTokens)
}

// onboardTenant is the tenant of client c's next onboard op.
func onboardTenant(c *client) int {
	return 1 + c.id + clients*(c.next/len(churnDesigns))
}

// streamApp is one deployed app a client executes on exec_stream.
type streamApp struct {
	tenant, app, placement string
}

// setupStream deploys three apps per client and moves their second
// virtual block so that one channel runs within a die, one across dies
// and one across FPGAs.
func setupStream(b *bench) error {
	b.stream = make([][]streamApp, clients)
	if err := b.parallel(func(c *client) *opError {
		for k := 0; k < 3; k++ {
			tenant := tenantName(c.id*3 + k)
			var sub submitAnswer
			if _, err := c.call(ref{}, http.MethodPost, b.t.front+"/submit", tokenOf(tenant),
				map[string]string{"design": streamDesign, "priority": "latency"}, &sub); err != nil {
				return err
			}
			tk, err := c.await(ref{}, sub.Ticket.ID)
			if err != nil {
				return err
			}
			if tk.State != sched.TicketSucceeded {
				return fail(failTicket, "ticket %s: %s", tk.ID, tk.Error)
			}
			b.stream[c.id] = append(b.stream[c.id], streamApp{tenant: tenant, app: sub.App})
		}
		return nil
	}); err != nil {
		return err
	}
	ct := b.t.stack.Controller
	for _, apps := range b.stream {
		for k := range apps {
			a := &apps[k]
			if k > 0 {
				if err := spread(ct, a.app, k == 2); err != nil {
					return err
				}
			}
			dep, ok := ct.Deployment(a.app)
			if !ok {
				return fmt.Errorf("exec_stream: %s is not deployed", a.app)
			}
			refs := make([]string, len(dep.Blocks))
			for i, r := range dep.Blocks {
				refs[i] = r.String()
			}
			a.placement = strings.Join(refs, ",")
		}
	}
	// One execute per app checks that the placements give each link class.
	for _, apps := range b.stream {
		for k, a := range apps {
			st, err := b.t.stack.ExecuteByName(a.app, streamTokens)
			if err != nil {
				return fmt.Errorf("exec_stream: %w", err)
			}
			ok := [3]bool{
				st.IntraDie > 0 && st.InterDie == 0 && st.InterFPGA == 0,
				st.InterDie > 0 && st.InterFPGA == 0,
				st.InterFPGA > 0,
			}[k]
			if !ok {
				return fmt.Errorf("exec_stream: %s on %s has channels intra-die %d, inter-die %d, inter-FPGA %d",
					a.app, a.placement, st.IntraDie, st.InterDie, st.InterFPGA)
			}
		}
	}
	return b.warm()
}

// spread relocates an app's second virtual block to the first free block
// on another die of the same board, or on another board.
func spread(ct *sched.Controller, app string, otherBoard bool) error {
	dep, ok := ct.Deployment(app)
	if !ok {
		return fmt.Errorf("exec_stream: %s is not deployed", app)
	}
	home := dep.Blocks[0]
	for board, bd := range ct.Cluster.Boards {
		if (board != home.Board) != otherBoard {
			continue
		}
		for die := range bd.Device.Dies {
			if !otherBoard && die == home.Die {
				continue
			}
			for i := 0; i < bd.Device.BlocksPerDie; i++ {
				target := cluster.GlobalBlockRef{Board: board, BlockRef: fpga.BlockRef{Die: die, Index: i}}
				if ct.DB.Owner(target) == "" {
					return ct.Relocate(app, 1, target)
				}
			}
		}
	}
	return fmt.Errorf("exec_stream: no free block to spread %s onto", app)
}

// opStream executes on the client's own apps, each once per round in a
// seeded order.
func opStream(c *client) *opError {
	apps := c.b.stream[c.id]
	if c.next%len(apps) == 0 {
		c.perm = c.rng.Perm(len(apps))
	}
	a := apps[c.perm[c.next%len(apps)]]
	c.next++
	root, end := c.root()
	err := c.execute(root, tokenOf(a.tenant), a.app, a.placement, streamTokens)
	end()
	// An op's first request is its execute: it is the op's submit and
	// ready sample too, so every workload reports every latency.
	d := c.cur.execMs[len(c.cur.execMs)-1]
	if err != nil {
		d = inf
	}
	c.cur.submitMs = append(c.cur.submitMs, d)
	c.cur.readyMs = append(c.cur.readyMs, d)
	return err
}

// warm runs the op loop briefly so connections, caches and lazily built
// series exist before timing.
func (b *bench) warm() error {
	seg := b.closedLoop(warmup, false)
	if seg.t.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed: %w", seg.t.failed, seg.t.attempted, b.firstErr)
	}
	return nil
}
