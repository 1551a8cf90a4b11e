// Command vitalharness drives the serving tier end to end. Each
// subcommand boots vitald's stack with a vitalgw gateway in front of it,
// in-process on loopback (internal/stacktest), exercises one aspect of it
// over HTTP, and exits 1 when an assertion fails (2 on a rejected flag):
//
//	vitalharness core|alerts|trace        # observability smokes (make obssmoke|alertsmoke|tracesmoke)
//	vitalharness soak [flags]             # admission-tier soak (make soaksmoke)
//	vitalharness replay -trace mix.json   # recorded tenant mix (make replaysmoke)
//
// `vitalharness <subcommand> -h` lists a subcommand's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sync"

	"vital/internal/stacktest"
	"vital/internal/telemetry"
)

var subcommands = []struct {
	name, summary string
	run           func(args []string) error
}{
	{"core", "Prometheus exposition, trace listing and deploy-trace retrieval", obsPhase("core", corePhase)},
	{"alerts", "placement report, channel-traffic metrics, board fault and alert over SSE", obsPhase("alerts", alertsPhase)},
	{"trace", "one submit as one cross-process trace, tenant SLO series, firing burn-rate alert", obsPhase("trace", tracePhase)},
	{"soak", "admission-tier soak: compile dedup, latency ceilings, backpressure, audit parity", runSoak},
	{"replay", "replay a recorded tenant mix and report TSDB-sourced curves", runReplay},
}

// usageError marks a rejected command line, as opposed to a failed run.
type usageError struct{ error }

func main() {
	log.SetFlags(0)
	for _, sc := range subcommands {
		if len(os.Args) < 2 || sc.name != os.Args[1] {
			continue
		}
		log.SetPrefix("vitalharness " + sc.name + ": ")
		err := sc.run(os.Args[2:])
		if errors.As(err, new(usageError)) {
			log.Print(err)
			os.Exit(2)
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Fprintln(os.Stderr, "usage: vitalharness <subcommand> [flags]\n\nsubcommands:")
	for _, sc := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-7s %s\n", sc.name, sc.summary)
	}
	os.Exit(2)
}

// newFlagSet returns a subcommand's flag set. Like the top-level flag
// set, it exits 2 on an undefined or malformed flag and 0 after -h, so
// its Parse never returns an error.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet("vitalharness "+name, flag.ExitOnError)
}

// token is the bearer token the harness issues to a tenant.
func token(tenant string) string { return "tok-" + tenant }

// postOK POSTs body to url and fails unless the answer is 200.
func postOK(st *stacktest.Stack, url, token string, body interface{}) error {
	resp, msg, err := st.Post(url, token, body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %.512s", url, resp.Status, msg)
	}
	return nil
}

// ruleFiring evaluates the backend's alert rules (GET /alerts) and
// reports whether rule is firing.
func ruleFiring(st *stacktest.Stack, rule string) (bool, error) {
	var body struct {
		Alerts []telemetry.AlertStatus `json:"alerts"`
	}
	if err := st.GetJSON(st.Backend+"/alerts", &body); err != nil {
		return false, err
	}
	for _, a := range body.Alerts {
		if a.Rule == rule && a.State == telemetry.AlertFiring {
			return true, nil
		}
	}
	return false, nil
}

// verdict collects assertion violations from concurrent goroutines.
type verdict struct {
	mu       sync.Mutex
	failures []string
}

func (v *verdict) failf(format string, args ...interface{}) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.failures = append(v.failures, fmt.Sprintf(format, args...))
}

func (v *verdict) count() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.failures)
}

// err logs every violation and reports whether there were any.
func (v *verdict) err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, f := range v.failures {
		log.Printf("FAIL: %s", f)
	}
	if len(v.failures) > 0 {
		return fmt.Errorf("%d assertion(s) failed", len(v.failures))
	}
	return nil
}
