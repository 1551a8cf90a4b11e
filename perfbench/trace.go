package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries "<op>/<span>" from a traced client request to the
// gateway wrapper. The gateway ignores it; it only lets the benchmark's
// own wrappers link the two sides of one request.
const spanHeader = "X-Perfbench-Span"

// span is one recorded interval. Op groups every span of one client op;
// Parent is the enclosing span (0 for an op root or an async ticket span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) dur() int64         { return s.End - s.Start }

// ref names a span to its children.
type ref struct{ op, id int64 }

type refKey struct{}

// recorder keeps spans in memory. Spans are recorded only by
// benchmark-owned wrappers around each layer's public entry point: the
// client's requests, the gateway handler, the gateway's backend client,
// and the backend handler. A request is recorded when the client traced
// its op; the wrappers pass everything else through.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
	// gets maps the URI of an in-flight gateway GET to its span: the
	// gateway proxies GETs without the request context, so the backend
	// hop finds its parent by URI instead.
	gets map[string]ref
	// hops maps an in-flight gateway → backend request (method, URI and
	// the traceparent the gateway sent) to its span; the backend wrapper
	// joins its span to the hop through it.
	hops map[string]ref
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), gets: map[string]ref{}, hops: map[string]ref{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin allocates a child span of parent, starting now.
func (r *recorder) begin(parent ref, name string) span {
	id := r.ids.Add(1)
	op := parent.op
	if op == 0 {
		op = id // a root opens its own op
	}
	return span{ID: id, Parent: parent.id, Op: op, Name: name, Start: r.now()}
}

func (r *recorder) finish(s span) {
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// add records a span whose times were taken elsewhere (ticket timestamps).
func (r *recorder) add(s span) {
	s.ID = r.ids.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) track(m map[string]ref, key string, v ref) {
	r.mu.Lock()
	m[key] = v
	r.mu.Unlock()
}

func (r *recorder) untrack(m map[string]ref, key string) {
	r.mu.Lock()
	delete(m, key)
	r.mu.Unlock()
}

func (r *recorder) lookup(m map[string]ref, key string) (ref, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[key]
	return v, ok
}

// routeName folds ticket IDs out of a path so spans group by route.
func routeName(method, path string) string {
	if strings.HasPrefix(path, "/deployments/") {
		path = "/deployments/{id}"
	}
	return method + " " + path
}

func hopKey(req *http.Request) string {
	return req.Method + " " + req.URL.RequestURI() + " " + req.Header.Get("traceparent")
}

// gateway wraps the gateway's handler: one span per request, child of
// the client span named in spanHeader.
func (r *recorder) gateway(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, ok := parseRef(req.Header.Get(spanHeader))
		if !ok {
			next.ServeHTTP(w, req)
			return
		}
		s := r.begin(parent, "gateway "+routeName(req.Method, req.URL.Path))
		self := ref{s.Op, s.ID}
		if req.Method == http.MethodGet {
			key := req.URL.RequestURI()
			r.track(r.gets, key, self)
			defer r.untrack(r.gets, key)
		}
		next.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), refKey{}, self)))
		r.finish(s)
	})
}

// hopTransport wraps the gateway's backend client: one span per backend
// round trip, from send until the gateway closes the response body.
type hopTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := t.rec
	parent, ok := req.Context().Value(refKey{}).(ref)
	if !ok && req.Method == http.MethodGet {
		parent, ok = r.lookup(r.gets, req.URL.RequestURI())
	}
	if !ok {
		return t.base.RoundTrip(req)
	}
	s := r.begin(parent, "hop "+routeName(req.Method, req.URL.Path))
	key := hopKey(req)
	r.track(r.hops, key, ref{s.Op, s.ID})
	var once sync.Once
	done := func() {
		once.Do(func() {
			r.untrack(r.hops, key)
			r.finish(s)
		})
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

type hopBody struct {
	io.ReadCloser
	done func()
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.done()
	return err
}

// backend wraps the backend's handler: one span per request that a
// traced gateway hop sent. The benchmark's own reads of /metrics, /queue
// and /verify go straight to the backend and are not recorded.
func (r *recorder) backend(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, ok := r.lookup(r.hops, hopKey(req))
		if !ok {
			next.ServeHTTP(w, req)
			return
		}
		s := r.begin(parent, "backend "+routeName(req.Method, req.URL.Path))
		next.ServeHTTP(w, req)
		r.finish(s)
	})
}

func formatRef(v ref) string { return fmt.Sprintf("%d/%d", v.op, v.id) }

func parseRef(h string) (ref, bool) {
	a, b, ok := strings.Cut(h, "/")
	if !ok {
		return ref{}, false
	}
	op, err1 := strconv.ParseInt(a, 10, 64)
	id, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil || op <= 0 || id <= 0 {
		return ref{}, false
	}
	return ref{op, id}, true
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans stores spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
