package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"vital/internal/sched"
	"vital/internal/workload"
)

func TestParseTrace(t *testing.T) {
	const ev = `"tenant":"alice","design":"lenet-S"`
	for _, tc := range []struct {
		name, raw, err string
	}{
		{"minimal", `{"events":[{` + ev + `}]}`, ""},
		{"all fields", `{"name":"m","events":[{"at_ms":5,` + ev + `,"priority":"batch","mem_quota_bytes":1024,"lifetime_ms":7}]}`, ""},
		{"trailing whitespace", `{"events":[{` + ev + `}]}` + "\n\t ", ""},
		{"not json", `{"events":`, "unexpected EOF"},
		{"trailing data", `{"events":[{` + ev + `}]} {}`, "trailing data"},
		{"unknown top-level field", `{"events":[{` + ev + `}],"speed":2}`, `unknown field "speed"`},
		{"unknown event field", `{"events":[{` + ev + `,"tokens":3}]}`, `unknown field "tokens"`},
		{"no events", `{"name":"empty","events":[]}`, "no events"},
		{"null events", `{"events":null}`, "no events"},
		{"missing tenant", `{"events":[{"design":"lenet-S"}]}`, "needs tenant and design"},
		{"missing design", `{"events":[{"tenant":"alice"}]}`, "needs tenant and design"},
		{"unknown design", `{"events":[{"tenant":"alice","design":"nope-S"}]}`, "event 0"},
		{"negative at_ms", `{"events":[{` + ev + `},{"at_ms":-1,` + ev + `}]}`, "event 1: negative"},
		{"negative lifetime_ms", `{"events":[{"lifetime_ms":-5,` + ev + `}]}`, "event 0: negative"},
		{"bad priority", `{"events":[{"priority":"urgent",` + ev + `}]}`, "event 0"},
		{"negative quota", `{"events":[{"mem_quota_bytes":-1,` + ev + `}]}`, "cannot unmarshal"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseTrace([]byte(tc.raw))
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("err = %v, want one containing %q", err, tc.err)
			}
		})
	}
}

func TestParseTraceExample(t *testing.T) {
	raw, err := os.ReadFile("testdata/example-trace.json")
	if err != nil {
		t.Fatal(err)
	}
	tf, err := parseTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Name != "example-mix" || len(tf.Events) != 12 {
		t.Fatalf("parsed %q with %d events, want example-mix with 12", tf.Name, len(tf.Events))
	}
}

// FuzzReplayTrace checks the trace parser never panics, accepts only
// traces that satisfy the validation rules, and round-trips: a parsed
// trace marshals to JSON that parses back to the same trace.
func FuzzReplayTrace(f *testing.F) {
	if raw, err := os.ReadFile("testdata/example-trace.json"); err == nil {
		f.Add(raw)
	}
	f.Add([]byte(`{"events":[{"tenant":"a","design":"lenet-S","priority":"batch","lifetime_ms":1}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		tf, err := parseTrace(raw)
		if err != nil {
			return
		}
		if len(tf.Events) == 0 {
			t.Fatal("accepted a trace with no events")
		}
		for i, ev := range tf.Events {
			if ev.Tenant == "" || ev.Design == "" || ev.AtMs < 0 || ev.LifetimeMs < 0 {
				t.Fatalf("accepted invalid event %d: %+v", i, ev)
			}
			if _, err := sched.ParsePriority(ev.Priority); err != nil {
				t.Fatalf("accepted event %d with priority %q", i, ev.Priority)
			}
			if _, err := workload.ParseSpec(ev.Design); err != nil {
				t.Fatalf("accepted event %d with design %q", i, ev.Design)
			}
		}
		again, err := json.Marshal(tf)
		if err != nil {
			t.Fatal(err)
		}
		back, err := parseTrace(again)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", again, err)
		}
		if !reflect.DeepEqual(back, tf) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, tf)
		}
	})
}

func TestRunReplayRejectsBadInputBeforeBoot(t *testing.T) {
	const trace = "testdata/example-trace.json"
	for _, args := range [][]string{
		{},
		{"-trace", trace, "-speed", "0"},
		{"-trace", trace, "-scrape", "0"},
		{"-trace", trace, "-format", "xml"},
	} {
		if err := runReplay(args); !errors.As(err, new(usageError)) {
			t.Errorf("runReplay(%q) = %v, want a usage error", args, err)
		}
	}

	// A malformed trace fails in parsing, before a stack boots.
	bad := t.TempDir() + "/bad.json"
	if err := os.WriteFile(bad, []byte(`{"events":[{"tenant":"a","design":"lenet-S","priority":"urgent"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runReplay([]string{"-trace", bad}); err == nil || !strings.Contains(err.Error(), "event 0") {
		t.Errorf("runReplay with a bad priority = %v, want the event 0 parse error", err)
	}
}
