// Command perfbench is the end-to-end tenant benchmark. It boots the
// vitald backend and the vitalgw gateway in-process on loopback HTTP,
// drives seeded tenant traffic through the gateway's public routes from
// two closed-loop clients, checks every answer, and prints the metrics
// of one workload. See README.md for the workloads and metrics.
//
//	perfbench --workload warm_churn --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, from an untraced run; with --trace 1 they are the
// per-layer ones, from a run whose spans are recorded by wrappers
// around each layer's public entry point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times an untraced run sets up; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 3

// result is what one run records.
type result struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      int            `json:"trace"`
	Host       host           `json:"host"`
	Correct    bool           `json:"correct"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	ErrorRate  float64        `json:"error_rate"`
	Failures   map[string]int `json:"failures"`
	Violations []string       `json:"violations,omitempty"`
	Metrics    metrics        `json:"metrics"`
	// Extra holds metrics that are reported but not in the result line.
	Extra metrics `json:"extra,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload: warm_churn, onboard, cold_compile or exec_stream")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the result file and, when traced, the spans")
	commit := flag.String("commit", "unknown", "commit of the code under test, recorded with the host")
	spread := flag.Bool("spread", false, "summarize result files named as arguments instead of running")
	flag.Parse()
	if *spread {
		if err := summarize(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := mixes[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload warm_churn|onboard|cold_compile|exec_stream, --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.Seconds, res.Trace, res.Host = *seconds, *trace, fingerprint(*commit)
	if err := emit(res, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets up and measures one workload.
func run(w *mix, seed int64, d time.Duration, traced bool, out string) (*result, error) {
	var b *bench
	var setups []float64
	repeats := setupRepeats
	if traced {
		repeats = 1 // a traced run reports no set-up time
	}
	for len(setups) < repeats {
		if b != nil {
			b.close()
		}
		start := time.Now()
		var err error
		if b, err = newBench(w, seed, d, traced); err != nil {
			return nil, err
		}
		if err := w.setup(b); err != nil {
			b.close()
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()

	res := &result{Workload: w.name, Seed: seed}
	var seg *segment
	if !traced {
		var err error
		if seg, err = b.measure(d); err != nil {
			return nil, err
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.Metrics, res.Extra = endToEnd(seg, setups, ms.HeapAlloc)
	} else {
		var err error
		if seg, err = b.measure(d); err != nil {
			return nil, err
		}
		for _, tk := range seg.traced.tickets {
			if tk.Started != nil && tk.Finished != nil {
				b.rec.add(span{Op: tk.op, Name: "ticket queue.wait", Start: b.rec.at(tk.Enqueued), End: b.rec.at(*tk.Started)})
				b.rec.add(span{Op: tk.op, Name: "ticket deploy", Start: b.rec.at(*tk.Started), End: b.rec.at(*tk.Finished)})
			}
		}
		spans := b.rec.snapshot()
		res.Metrics, res.Extra = b.layers(seg, spans, b.designKeyMicros())
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(out, fmt.Sprintf("%s-seed%d-spans.jsonl", w.name, seed)), spans); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed, res.ErrorRate = seg.t.attempted, seg.t.failed, errorRate(seg.t)
	res.Failures = map[string]int{}
	for _, k := range failKinds {
		res.Failures[k] = seg.t.kinds[k]
	}
	if seg.t.failed > 0 {
		b.expect(false, "%d of %d ops failed; first: %v", seg.t.failed, seg.t.attempted, b.firstErr)
	}
	b.expect(seg.t.attempted > 0, "no op completed")
	res.Violations = b.violations
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// emit prints the report, stores the result file and prints the result
// line last.
func emit(res *result, out string) error {
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	h, _ := json.Marshal(res.Host)
	fmt.Printf("host %s\n", h)
	printMetrics(res.Metrics)
	printMetrics(res.Extra)
	fmt.Printf("ops: attempted=%d failed=%d error_rate=%g failures=%v\n", res.Attempted, res.Failed, res.ErrorRate, res.Failures)
	for _, v := range res.Violations {
		fmt.Println("CHECK FAILED:", v)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, res.Trace))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	line := map[string]interface{}{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed}
	vals := map[string]interface{}{}
	for n, m := range res.Metrics {
		v := m.Value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = -1 // only a failed op makes a percentile infinite; the run is then incorrect
		}
		vals[n] = map[string]interface{}{"value": v, "unit": m.Unit}
	}
	line["metrics"] = vals
	raw, err = json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// summarize prints, per workload and metric, the median and the
// quartile spread of the result files given: the repeatability check a
// set of runs with different seeds must pass.
func summarize(paths []string) error {
	vals := map[string][]float64{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		for n, m := range r.Metrics {
			k := fmt.Sprintf("%s trace=%d %s", r.Workload, r.Trace, n)
			vals[k] = append(vals[k], m.Value)
		}
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		xs := vals[k]
		q1, q3 := quartiles(xs)
		med := median(xs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Printf("%-60s n=%-3d median=%-12.6g iqr/median=%.4f\n", k, len(xs), med, spread)
	}
	return nil
}
