package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// shortOptions are one-set-up runs with sub-second phases.
func shortOptions(t *testing.T) options {
	return options{seed: 1, seconds: 1.5, setups: 1, timeout: clientTimeout,
		traceFile: filepath.Join(t.TempDir(), "trace.json")}
}

func mustRun(t *testing.T, name string, o options) *result {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	r, err := runWorkload(w, o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Every workload runs without a failure and reports every end-to-end
// metric, and the predictions the issue makes of the seed itself hold.
func TestWorkloads(t *testing.T) {
	m := map[string]map[string]float64{}
	for _, w := range workloads {
		r := mustRun(t, w.name, shortOptions(t))
		m[w.name] = r.Metrics
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d queries failed", w.name, r.Failed, r.Attempted)
		}
		for _, s := range endToEnd {
			if v, ok := r.Metrics[s.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", w.name, s.Name, v)
			}
		}
		if r.Metrics["guard.refusals"] != 0 {
			t.Errorf("%s: the guard refused %v queries", w.name, r.Metrics["guard.refusals"])
		}
	}
	udp, doh := m["udp_hit"], m["doh_hit"]
	for _, name := range []string{"cpu_us_per_query", "allocs_per_query", "wire_bytes_per_query"} {
		if doh[name] <= udp[name] {
			t.Errorf("%s: doh_hit %v is not above udp_hit %v", name, doh[name], udp[name])
		}
	}
	if udp["dnscache.hit_ratio"] < 0.99 || doh["dnscache.hit_ratio"] < 0.99 {
		t.Errorf("hit workloads hit %v and %v of lookups, want 0.99", udp["dnscache.hit_ratio"], doh["dnscache.hit_ratio"])
	}
	if h := m["udp_zipf_miss"]["dnscache.hit_ratio"]; h < 0.6 || h > 0.85 {
		t.Errorf("udp_zipf_miss hit ratio %v, want 0.6 to 0.85", h)
	}
	// Hits must not wait behind misses — where the machine keeps up with
	// the rate at all (under the race detector it does not).
	if dot := m["dot_mixed"]; dot["bench.gen_late_p99_us"] > 1000 {
		t.Logf("dot_mixed: the generator ran %v us late at p99; not checking p50", dot["bench.gen_late_p99_us"])
	} else if dot["bench.open_p50_us"] >= 2000 {
		t.Errorf("dot_mixed p50 %v us is not below the 2 ms upstream delay", dot["bench.open_p50_us"])
	}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's list:\n%v\n%v", f.EndToEnd, endToEnd)
	}
	if !slices.Equal(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's list:\n%v\n%v", f.PerLayer, perLayer)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v, the program has %s: %s", i, f.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	seen := map[string]bool{}
	for _, s := range slices.Concat(endToEnd, perLayer) {
		if seen[s.Name] {
			t.Errorf("metric %s is listed twice", s.Name)
		}
		seen[s.Name] = true
	}
}

// A traced run emits every listed metric and nothing unlisted, and its span
// file parses with every child inside its parent.
func TestTracedRunEmitsEveryMetric(t *testing.T) {
	o := shortOptions(t)
	o.trace = true
	r := mustRun(t, "dot_mixed", o)
	var want, got []string
	for _, s := range slices.Concat(endToEnd, perLayer) {
		want = append(want, s.Name)
	}
	for name := range r.Metrics {
		got = append(got, name)
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("metrics emitted differ from those listed:\n got %v\nwant %v", got, want)
	}

	buf, err := os.ReadFile(o.traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Names []string   `json:"names"`
		Spans [][5]int64 `json:"spans"` // name, start, end, parent, query
	}
	if err := json.Unmarshal(buf, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Spans) < 1000 {
		t.Fatalf("only %d spans recorded", len(file.Spans))
	}
	nested := 0
	for i, s := range file.Spans {
		if s[0] < 0 || int(s[0]) >= len(file.Names) || s[2] < s[1] {
			t.Fatalf("span %d is malformed: %v", i, s)
		}
		if s[3] < 0 {
			continue
		}
		p := file.Spans[s[3]]
		if s[1] < p[1] || s[2] > p[2] || s[4] != p[4] {
			t.Fatalf("span %d %v is not inside its parent %v", i, s, p)
		}
		if p[3] >= 0 {
			nested++
		}
	}
	if nested == 0 {
		t.Error("no span is nested two deep: the handler span should sit inside the telemetry span")
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a := generate(w, 7, time.Second).digest
		if b := generate(w, 7, time.Second).digest; a != b {
			t.Errorf("%s: same seed, digests %s and %s", w.name, a, b)
		}
		if b := generate(w, 8, time.Second).digest; a == b {
			t.Errorf("%s: seeds 7 and 8 share digest %s", w.name, a)
		}
	}
}

// Check the checker: an upstream that answers with the wrong address fails
// every query, and the command exits non-zero.
func TestWrongAnswersFailEveryQuery(t *testing.T) {
	var stdout bytes.Buffer
	code := execute(config{workload: "udp_hit", seed: 1, seconds: 1.5, runs: 1, setups: 1, timeout: clientTimeout,
		wrongAnswers: true, out: filepath.Join(t.TempDir(), "bench.json")}, &stdout)
	if code == 0 {
		t.Error("exit code 0 with every answer wrong")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last line
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Attempted == 0 || last.Failed != last.Attempted {
		t.Errorf("result line %+v, want every attempted query failed", last)
	}
	if !strings.Contains(stdout.String(), "udp_hit bench.fail_ratio 1 ratio") {
		t.Error("fail_ratio 1 was not reported")
	}
}

// A 1 ms client timeout against the 2 ms upstream: the misses time out, are
// counted as failures, and stay in the latency sample.
func TestTimeoutsAreFailuresNotDroppedSamples(t *testing.T) {
	o := shortOptions(t)
	o.timeout = time.Millisecond
	r := mustRun(t, "dot_mixed", o)
	if r.Failed*20 < r.Attempted {
		t.Errorf("%d of %d failed, want about the 10%% that miss", r.Failed, r.Attempted)
	}
	arrivals := 0
	w, _ := findWorkload("dot_mixed")
	in := generate(w, o.seed, time.Duration(openShare*o.seconds*float64(time.Second)))
	for _, lane := range in.open {
		arrivals += len(lane)
	}
	if n := r.Samples["bench.open_p50_us"]; n != arrivals {
		t.Errorf("latency sample has %d entries for %d arrivals", n, arrivals)
	}
	// One in ten is a miss, so the whole-phase p99 lands on a failure,
	// which the sample holds as the largest possible latency.
	if r.Metrics["bench.open_p99_whole_us"] < 1e6 {
		t.Errorf("p99 over the whole phase is %v us: the timed-out queries are missing from it", r.Metrics["bench.open_p99_whole_us"])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	write := func(name string, rss, cpu []float64) string {
		rep := report{}
		for i := range rss {
			rep.Results = append(rep.Results, &result{Workload: "udp_hit",
				Metrics: map[string]float64{"max_rss_mb": rss[i], "cpu_us_per_query": cpu[i], "setup_s": 1, "bench.closed_qps": 9}})
		}
		buf, _ := json.Marshal(rep)
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", []float64{100, 101, 99, 100}, []float64{50, 50, 51, 49})
	b := write("b.json", []float64{200, 201, 199, 200}, []float64{20, 80, 50, 110})
	var out bytes.Buffer
	if err := compareReports(&out, a, b); err != errWorse {
		t.Errorf("compare returned %v, want errWorse", err)
	}
	for _, want := range []string{"max_rss_mb", "2.000", "worse", "unresolved", "setup_s", "ok", "bench.closed_qps", "not gated"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
