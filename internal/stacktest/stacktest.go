// Package stacktest boots the serving tier in-process — a vitald backend
// and a vitalgw admission gateway in front of it, both on loopback — and
// carries the HTTP helpers the harnesses drive it with. It is the one
// bootstrap behind cmd/vitalharness, so a change to the serving tier is
// exercised by every harness subcommand at once.
package stacktest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"vital/internal/core"
	"vital/internal/gateway"
	"vital/internal/sched"
	"vital/internal/telemetry"
)

// Stack is one booted backend and gateway. Create with Boot; Close tears
// both down.
type Stack struct {
	// Core is the backend's stack: its controller, compile cache and
	// registry.
	Core *core.Stack
	// Gateway is the admission tier in front of Core.
	Gateway *gateway.Gateway
	// Backend and Front are the backend and gateway base URLs.
	Backend, Front string
	// Client is the harness-side HTTP client, also the gateway's backend
	// client. Its timeout is generous because a submission coalesced onto
	// a cold compile legally holds its connection for the whole synthesis;
	// the harnesses assert latency themselves, so it only guards hangs.
	Client *http.Client

	backend, front *http.Server
	wg             sync.WaitGroup
}

// Boot builds a stack with opts, serves its handler the way cmd/vitald
// does (access-logged through log.Printf), and starts a gateway built from
// cfg in front of it. Boot sets cfg.Backend and cfg.Client.
func Boot(opts sched.Options, cfg gateway.Config) (*Stack, error) {
	s := &Stack{
		Core:   core.NewStackWithOptions(nil, opts),
		Client: &http.Client{Timeout: 10 * time.Minute},
	}
	var err error
	if s.backend, s.Backend, err = s.serve(telemetry.AccessLog(log.Printf, core.NewStackHandler(s.Core))); err != nil {
		s.Close()
		return nil, err
	}
	cfg.Backend, cfg.Client = s.Backend, s.Client
	if s.Gateway, err = gateway.New(cfg); err != nil {
		s.Close()
		return nil, fmt.Errorf("stacktest: %w", err)
	}
	if s.front, s.Front, err = s.serve(s.Gateway.Handler()); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *Stack) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("stacktest: listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	s.wg.Add(1)
	go func() { defer s.wg.Done(); _ = srv.Serve(ln) }()
	return srv, "http://" + ln.Addr().String(), nil
}

// KillBackend closes the backend's listener and connections, leaving the
// gateway up: every later forward fails with 502.
func (s *Stack) KillBackend() { _ = s.backend.Close() }

// Close shuts both servers, the controller's async deploy workers and the
// client's idle connections, and waits for the serving goroutines.
func (s *Stack) Close() {
	for _, srv := range []*http.Server{s.front, s.backend} {
		if srv != nil {
			_ = srv.Close()
		}
	}
	s.wg.Wait()
	s.Core.Controller.Close()
	s.Client.CloseIdleConnections()
}

// Post sends body as JSON to url — with a bearer token when token is
// non-empty — and returns the response together with its body, already
// read and closed.
func (s *Stack) Post(url, token string, body interface{}) (*http.Response, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := s.Client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp, data, err
}

// GetJSON fetches url and decodes its 200 body into v.
func (s *Stack) GetJSON(url string, v interface{}) error {
	resp, err := s.Client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	return nil
}

// AwaitTicket polls a deploy ticket through the gateway until it is
// succeeded or failed, giving up after timeout.
func (s *Stack) AwaitTicket(id string, timeout time.Duration) (*sched.Ticket, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var t sched.Ticket
		if err := s.GetJSON(s.Front+"/deployments/"+id, &t); err != nil {
			return nil, fmt.Errorf("ticket %s: %w", id, err)
		}
		if t.State == sched.TicketSucceeded || t.State == sched.TicketFailed {
			return &t, nil
		}
		time.Sleep(time.Millisecond)
	}
	return nil, fmt.Errorf("ticket %s: not terminal after %v", id, timeout)
}

// FetchExposition retrieves the Prometheus text exposition under base and
// checks its content type and its syntax with the strict validator.
func (s *Stack) FetchExposition(base string) ([]byte, error) {
	resp, err := s.Client.Get(base + "/metrics?format=prometheus")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	expo, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		return nil, fmt.Errorf("metrics: content type %q, want %q", ct, telemetry.ContentType)
	}
	if err := telemetry.ValidateExposition(expo); err != nil {
		return nil, fmt.Errorf("metrics exposition invalid: %w", err)
	}
	return expo, nil
}
