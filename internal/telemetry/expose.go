package telemetry

import (
	"fmt"
	"io"
	"sort"
)

// TextWriter emits metric families in the Prometheus text exposition
// format (version 0.0.4). It is the single implementation of the format
// in this repository: the telemetry snapshot renders through it, and the
// proxy reuses it for its scrape-time gauges, so a format fix lands
// everywhere at once. The first write error latches and suppresses all
// further output; check Err when done.
type TextWriter struct {
	w   io.Writer
	err error
}

// NewTextWriter wraps w.
func NewTextWriter(w io.Writer) *TextWriter { return &TextWriter{w: w} }

// Err returns the first write error, if any.
func (t *TextWriter) Err() error { return t.err }

func (t *TextWriter) printf(format string, args ...any) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}

// Family emits the # HELP / # TYPE header of a metric family. typ is a
// Prometheus metric type ("counter", "gauge", "summary").
func (t *TextWriter) Family(name, help, typ string) {
	t.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Value emits one unlabelled sample. v may be any integer or float; it
// is rendered with %v, which matches the exposition's number syntax.
func (t *TextWriter) Value(name string, v any) {
	t.printf("%s %v\n", name, v)
}

// LabeledValue emits one sample carrying a single label.
func (t *TextWriter) LabeledValue(name, label, labelVal string, v any) {
	t.printf("%s{%s=%q} %v\n", name, label, labelVal, v)
}

// LabeledValue2 emits one sample carrying two labels.
func (t *TextWriter) LabeledValue2(name, l1, v1, l2, v2 string, v any) {
	t.printf("%s{%s=%q,%s=%q} %v\n", name, l1, v1, l2, v2, v)
}

// Counter emits a labelless counter family with its single sample.
func (t *TextWriter) Counter(name, help string, v any) {
	t.Family(name, help, "counter")
	t.Value(name, v)
}

// Gauge emits a labelless gauge family with its single sample.
func (t *TextWriter) Gauge(name, help string, v any) {
	t.Family(name, help, "gauge")
	t.Value(name, v)
}

// CounterVec emits a counter family with one sample per label value, in
// sorted order so scrapes are diffable.
func (t *TextWriter) CounterVec(name, help, label string, vals map[string]uint64) {
	t.Family(name, help, "counter")
	for _, k := range sortedKeys(vals) {
		t.LabeledValue(name, label, k, vals[k])
	}
}

// summaryVec emits a summary family with one series per label value.
func (t *TextWriter) summaryVec(name, help, label string, vals map[string]*Distribution) {
	if len(vals) == 0 {
		return
	}
	t.Family(name, help, "summary")
	for _, k := range sortedKeys(vals) {
		t.summarySeries(name, label, k, vals[k])
	}
}

// summarySeries emits the quantile/sum/count samples of one summary
// series; label may be empty for a labelless series.
func (t *TextWriter) summarySeries(name, label, labelVal string, d *Distribution) {
	lbl := func(extra string) string {
		switch {
		case label == "" && extra == "":
			return ""
		case label == "":
			return "{" + extra + "}"
		case extra == "":
			return fmt.Sprintf("{%s=%q}", label, labelVal)
		}
		return fmt.Sprintf("{%s=%q,%s}", label, labelVal, extra)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		t.printf("%s%s %g\n", name,
			lbl(fmt.Sprintf(`quantile="%g"`, q)), d.Quantile(q).Seconds())
	}
	sum := float64(d.Count) * d.MeanMs / 1e3 // mean ms × count → seconds
	t.printf("%s_sum%s %g\n", name, lbl(""), sum)
	t.printf("%s_count%s %d\n", name, lbl(""), d.Count)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format, dependency-free: counters as counter families with label
// dimensions, latency distributions as summary families with the
// p50/p95/p99 quantiles the histograms were built to answer.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	t := NewTextWriter(w)
	t.CounterVec("dohcost_queries_total",
		"Completed DNS transactions by listener transport.", "proto", s.Queries)
	t.CounterVec("dohcost_query_verdicts_total",
		"Final query fates: ok, servfail, canceled.", "verdict", s.Verdicts)
	t.CounterVec("dohcost_cache_events_total",
		"Cache outcomes per query: hit, negative_hit, miss, coalesced, bypass, none.", "event", s.CacheEvents)
	t.Counter("dohcost_pool_dials_total",
		"Fresh upstream connections established by the pool.", s.PoolDials)
	t.Counter("dohcost_pool_exchanges_total",
		"Successful upstream exchanges.", s.PoolExchanges)
	t.Counter("dohcost_pool_failures_total",
		"Failed upstream attempts (dial or exchange) before failover.", s.PoolFailures)
	t.Counter("dohcost_pool_backoffs_total",
		"Pool connection checkouts refused locally in redial backoff (no network activity).", s.PoolBackoffs)
	if len(s.Dials) > 0 {
		t.Family("dohcost_dials_total",
			"Socket dial attempts by address family and outcome (ok, error, backoff).", "counter")
		for _, fam := range sortedKeys(s.Dials) {
			for _, outcome := range sortedKeys(s.Dials[fam]) {
				t.LabeledValue2("dohcost_dials_total", "family", fam, "outcome", outcome, s.Dials[fam][outcome])
			}
		}
	}
	if len(s.DialWins) > 0 {
		t.CounterVec("dohcost_dial_wins_total",
			"Happy-Eyeballs dial race wins by address family.", "family", s.DialWins)
	}
	t.Counter("dohcost_hedges_fired_total",
		"Hedge exchanges launched by the steering layer (second attempt raced after the hedge delay).", s.HedgesFired)
	t.Counter("dohcost_hedges_won_total",
		"Hedge exchanges whose answer beat the primary back to the client.", s.HedgesWon)
	t.Counter("dohcost_udp_tc_tcp_retries_total",
		"Truncated UDP answers retried over TCP (RFC 7766).", s.TCFallbacks)
	t.Counter("dohcost_udp_retransmits_total",
		"UDP query attempts re-sent after per-attempt timeouts.", s.UDPRetransmits)
	t.Counter("dohcost_upstream_bytes_sent_total",
		"DNS message bytes sent to upstreams.", s.UpstreamBytesSent)
	t.Counter("dohcost_upstream_bytes_received_total",
		"DNS message bytes received from upstreams.", s.UpstreamBytesReceived)

	t.summaryVec("dohcost_query_latency_seconds",
		"Accept-to-response latency by listener transport.", "proto", s.Latency)
	t.summaryVec("dohcost_dial_latency_seconds",
		"Socket dial attempt duration by address family.", "family", s.DialLatency)
	if s.UpstreamLatency != nil && s.UpstreamLatency.Count > 0 {
		t.Family("dohcost_upstream_latency_seconds",
			"Upstream exchange latency (cache misses only).", "summary")
		t.summarySeries("dohcost_upstream_latency_seconds", "", "", s.UpstreamLatency)
	}
	return t.Err()
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
