package main

import (
	"testing"
	"time"
)

func TestParseSample(t *testing.T) {
	for _, tc := range []struct {
		line, name, labels string
		value              float64
		ok                 bool
	}{
		{`vital_cache_hits_total 12`, "vital_cache_hits_total", "", 12, true},
		{`vital_http_requests_total{code="200",route="POST /compile"} 7`, "vital_http_requests_total", `code="200",route="POST /compile"`, 7, true},
		{`x{a="}{ \" }"} 1.5`, "x", `a="}{ \" }"`, 1.5, true},
		{`vital_compile_seconds_bucket{cache="miss",le="1"} 3 # {trace_id="ab"} 0.9`, "vital_compile_seconds_bucket", `cache="miss",le="1"`, 3, true},
		{`# HELP x help text`, "", "", 0, false},
		{``, "", "", 0, false},
		{`x{a="1" 2`, "", "", 0, false},
		{`x{a="1"}`, "", "", 0, false},
	} {
		name, labels, v, ok := parseSample(tc.line)
		if ok != tc.ok || name != tc.name || labels != tc.labels || v != tc.value {
			t.Errorf("parseSample(%q) = %q, %q, %v, %v; want %q, %q, %v, %v",
				tc.line, name, labels, v, ok, tc.name, tc.labels, tc.value, tc.ok)
		}
	}
	exp := exposition{"m": {{`kind="deploy"`, 2}, {`kind="deploy_async"`, 5}, {`kind="undeploy"`, 3}}}
	if got := exp.sum("m", `kind="deploy"`); got != 2 {
		t.Errorf(`sum(kind="deploy") = %v, want 2`, got)
	}
	if got := exp.sum("m"); got != 10 {
		t.Errorf("sum() = %v, want 10", got)
	}
}

// Every second slice is traced, starting untraced, and splitTime must
// agree with tracedAt on which.
func TestSplitTime(t *testing.T) {
	if tracedAt(0) || !tracedAt(traceSlice) || tracedAt(2*traceSlice) {
		t.Fatal("tracedAt: want slices 0 and 2 untraced, slice 1 traced")
	}
	for _, tc := range []struct {
		elapsed, traced time.Duration
	}{
		{0, 0},
		{100 * time.Millisecond, 0},
		{traceSlice, 0},
		{traceSlice + 10*time.Millisecond, 10 * time.Millisecond},
		{2 * traceSlice, traceSlice},
		{5*traceSlice + 7, 2*traceSlice + 7},
		{6*traceSlice - 1, 3*traceSlice - 1},
	} {
		traced, untraced := splitTime(tc.elapsed)
		if traced != tc.traced || traced+untraced != tc.elapsed {
			t.Errorf("splitTime(%v) = %v, %v; want traced %v of it", tc.elapsed, traced, untraced, tc.traced)
		}
	}
}
