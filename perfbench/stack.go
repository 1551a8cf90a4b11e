package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"vital/internal/core"
	"vital/internal/gateway"
	"vital/internal/sched"
	"vital/internal/telemetry"
)

// Daemon defaults the in-process tiers reproduce: vitald and vitalgw
// scrape their registries into the TSDB every 5 s, vitald evaluates
// alert rules every 15 s, and vitalgw admits 50 submits/s per tenant
// with a burst of 100. Access logging is left off: it is a deployment
// choice that writes a line per request, not part of the serving path.
const (
	scrapeInterval = 5 * time.Second
	alertInterval  = 15 * time.Second
	tenantRate     = 50
	tenantBurst    = 100
)

// tiers is one booted vitald backend and vitalgw gateway, served on
// loopback HTTP inside this process.
type tiers struct {
	stack   *core.Stack
	gw      *gateway.Gateway
	backend string // backend base URL
	front   string // gateway base URL

	servers []*http.Server
	stop    chan struct{}
	wg      sync.WaitGroup
}

// boot starts both tiers with the daemons' default options. tokens maps
// bearer tokens to tenants. A non-nil rec installs the tracing wrappers
// around the gateway handler, the gateway's backend client and the
// backend handler; they record only while rec is on.
func boot(tokens map[string]string, rec *recorder) (*tiers, error) {
	t := &tiers{
		stack: core.NewStackWithOptions(nil, sched.Options{}),
		stop:  make(chan struct{}),
	}
	var backend http.Handler = core.NewStackHandler(t.stack)
	if rec != nil {
		backend = rec.backend(backend)
	}
	var err error
	if t.backend, err = t.serve(backend); err != nil {
		t.close()
		return nil, err
	}
	cfg := gateway.Config{Backend: t.backend, Tokens: tokens, Rate: tenantRate, Burst: tenantBurst}
	if rec != nil {
		// The gateway's default backend client, with its transport wrapped.
		cfg.Client = &http.Client{Timeout: 30 * time.Second, Transport: hopTransport{rec, http.DefaultTransport}}
	}
	if t.gw, err = gateway.New(cfg); err != nil {
		t.close()
		return nil, fmt.Errorf("boot gateway: %w", err)
	}
	var front http.Handler = t.gw.Handler()
	if rec != nil {
		front = rec.gateway(front)
	}
	if t.front, err = t.serve(front); err != nil {
		t.close()
		return nil, err
	}

	ct := t.stack.Controller
	telemetry.RegisterRuntimeMetrics(ct.Reg)
	telemetry.RegisterRuntimeMetrics(t.gw.Reg)
	t.wg.Add(3)
	go func() { defer t.wg.Done(); ct.TSDB.Poll(ct.Reg, scrapeInterval, t.stop) }()
	go func() { defer t.wg.Done(); t.gw.DB.Poll(t.gw.Reg, scrapeInterval, t.stop) }()
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(alertInterval)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				ct.EvalAlerts()
			}
		}
	}()
	return t, nil
}

func (t *tiers) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("boot: listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	t.servers = append(t.servers, srv)
	t.wg.Add(1)
	go func() { defer t.wg.Done(); _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// close stops the pollers, the servers and the deploy workers, and waits
// for every goroutine boot started.
func (t *tiers) close() {
	close(t.stop)
	for _, srv := range t.servers {
		_ = srv.Close()
	}
	t.wg.Wait()
	t.stack.Controller.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}
