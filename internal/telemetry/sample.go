package telemetry

// Sample is one flat, exposition-shaped sample of the registry: counters
// and gauges yield one sample per series; a histogram expands exactly the
// way the Prometheus text format renders it — one cumulative
// <name>_bucket sample per bound (the +Inf bucket last, under le="+Inf"),
// plus <name>_sum and <name>_count. The expansion is what makes a
// time-series store scraped from Samples able to answer
// quantile-over-histogram queries later: each bucket becomes an ordinary
// monotone counter series keyed by its le label.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Samples flattens the registry's current state into exposition-shaped
// samples in deterministic order (families by name, series by label
// signature, buckets by ascending bound). Scrape-time callbacks
// (GaugeFunc/CounterFunc) are evaluated here, outside the registry lock —
// the same snapshot-then-evaluate idiom as WritePrometheus.
func (r *Registry) Samples() []Sample {
	var out []Sample
	for _, f := range r.collect() {
		for _, s := range f.series {
			switch {
			case s.hist != nil:
				cum, count, sum := s.hist.snapshot()
				for i, upper := range s.hist.uppers {
					out = append(out, Sample{
						Name:   f.name + "_bucket",
						Labels: withLE(s.labels, formatFloat(upper)),
						Value:  float64(cum[i]),
					})
				}
				out = append(out, Sample{
					Name:   f.name + "_bucket",
					Labels: withLE(s.labels, "+Inf"),
					Value:  float64(cum[len(cum)-1]),
				})
				out = append(out,
					Sample{Name: f.name + "_sum", Labels: s.labels, Value: sum},
					Sample{Name: f.name + "_count", Labels: s.labels, Value: float64(count)})
			case s.fn != nil:
				out = append(out, Sample{Name: f.name, Labels: s.labels, Value: s.fn()})
			case s.counter != nil:
				out = append(out, Sample{Name: f.name, Labels: s.labels, Value: float64(s.counter.Value())})
			case s.gauge != nil:
				out = append(out, Sample{Name: f.name, Labels: s.labels, Value: s.gauge.Value()})
			}
		}
	}
	return out
}

// withLE appends the histogram bound label to a series' label set without
// mutating the shared slice.
func withLE(labels []Label, le string) []Label {
	out := make([]Label, 0, len(labels)+1)
	out = append(out, labels...)
	return append(out, Label{Key: "le", Value: le})
}
