package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dohcost/internal/stats"
)

// options are the knobs of one run; the flags set the first three, tests
// the rest.
type options struct {
	seed    int64
	seconds float64 // measured time: warm-up, open and closed phases together
	trace   bool
	// setups is how many times, at least, the stack is built and pre-warmed;
	// setup_s is the median. The last one built carries the load.
	setups  int
	timeout time.Duration
	// wrongAnswers points the proxy at an upstream that lies.
	wrongAnswers bool
	traceFile    string
}

// Shares of options.seconds the warm-up and the open phase get; the closed
// phase has the rest. The open phase carries the gating metrics, so it gets
// the most windows.
const (
	warmShare = 0.1
	openShare = 0.6
)

// result is one workload's outcome: every metric the run produced by name.
type result struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Digest     string         `json:"input_digest"`
	Attempted  uint64         `json:"attempted"`
	Failed     uint64         `json:"failed"`
	Overloaded bool           `json:"overloaded,omitempty"`
	Samples    map[string]int `json:"samples"`
	// Windows holds the per-window series the windowed metrics are cut
	// from, in time order: what a reader needs to see a stall.
	Windows map[string][]float64 `json:"windows"`
	Metrics map[string]float64   `json:"metrics"`
}

// sample is the process's cumulative cost at one instant.
type sample struct {
	t         int64
	cpu       int64 // user+sys ns
	attempted uint64
}

// sampler watches the run from the side: goroutine count every 10 ms and
// a cost sample every 250 ms, from which the windowed figures are cut.
type sampler struct {
	lanes []*lane
	stop  chan struct{}
	done  sync.WaitGroup

	mu            sync.Mutex
	samples       []sample
	goroutinePeak atomic.Int64
}

func cpuNanos() (cpu int64, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), int64(ru.Maxrss)
}

func (s *sampler) snap() sample {
	cpu, _ := cpuNanos()
	sm := sample{t: nanotime(), cpu: cpu}
	for _, l := range s.lanes {
		sm.attempted += l.attempted.Load()
	}
	s.mu.Lock()
	s.samples = append(s.samples, sm)
	s.mu.Unlock()
	return sm
}

func startSampler(ls []*lane) *sampler {
	s := &sampler{lanes: ls, stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for i := 1; ; i++ {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if n := int64(runtime.NumGoroutine()); n > s.goroutinePeak.Load() {
					s.goroutinePeak.Store(n)
				}
				if i%25 == 0 {
					s.snap()
				}
			}
		}
	}()
	return s
}

// cpuPerQuery is the CPU cost per attempted query between from and to: the
// median over windows of about a second when there are at least three,
// so one stalled second does not move it, and the whole interval
// otherwise.
func (s *sampler) cpuPerQuery(from, to sample) (ns float64, windows []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ratios []float64
	prev := from
	for _, sm := range s.samples {
		if sm.t <= from.t || sm.t > to.t || sm.t-prev.t < int64(time.Second) {
			continue
		}
		if n := sm.attempted - prev.attempted; n > 0 {
			ratios = append(ratios, float64(sm.cpu-prev.cpu)/float64(n))
		}
		prev = sm
	}
	if len(ratios) >= 3 {
		return quantile(ratios, 0.5), ratios
	}
	whole := ratio(float64(to.cpu-from.cpu), float64(to.attempted-from.attempted))
	return whole, []float64{whole}
}

// quantile interpolates the q-quantile of values; 0 when there are none.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return stats.NewCDF(values).Quantile(q)
}

// rank is the nearest-rank q-quantile of sorted latencies, in µs.
func rank(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)]) / 1e3
}

// runWorkload stands the stack up, drives the three phases over it and
// returns every metric the run saw. With o.trace it also replays the
// workload through the layers one call at a time (layers.go).
func runWorkload(w workload, o options) (*result, error) {
	total := time.Duration(o.seconds * float64(time.Second))
	warmDur := time.Duration(warmShare * float64(total))
	openDur := time.Duration(openShare * float64(total))
	closedDur := total - warmDur - openDur
	in := generate(w, o.seed, openDur)

	var (
		st     *stack
		ls     []*lane
		setups []float64
	)
	closeAll := func() {
		for _, l := range ls {
			l.close()
		}
		if st != nil {
			st.close()
		}
	}
	// Small set-ups are repeated further, up to five times as often, until
	// half a second has gone into them: a 5 ms figure needs the samples.
	begun := time.Now()
	for i := 0; i < o.setups || (i < 5*o.setups && time.Since(begun) < 500*time.Millisecond); i++ {
		closeAll()
		t0 := time.Now()
		var err error
		if st, err = newStack(stackConfig{w: w, wrongAnswers: o.wrongAnswers}); err != nil {
			return nil, err
		}
		ls = ls[:0]
		for j := 0; j < lanes; j++ {
			l, err := newLane(j, in, o.timeout)
			if err != nil {
				closeAll()
				return nil, err
			}
			ls = append(ls, l)
			if l.link, err = st.dial(l); err != nil {
				closeAll()
				return nil, err
			}
		}
		if err := st.prewarm(in); err != nil {
			closeAll()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer closeAll()

	runtime.GC()
	smp := startSampler(ls)
	baseGoroutines := runtime.NumGoroutine()

	phases := func(mk func(l int) *phase) []*phase {
		ps := make([]*phase, lanes)
		for l := range ps {
			ps[l] = mk(l)
		}
		return ps
	}
	runPhase(ls, phases(func(l int) *phase {
		return &phase{picks: in.closed[l], window: window, duration: warmDur}
	}))

	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	smp.goroutinePeak.Store(0)
	before := st.counters()
	bytes0 := linkBytes(ls)
	openPh := phases(func(l int) *phase {
		n := len(in.open[l])
		return &phase{open: in.open[l], window: openWindow, record: true,
			lat: make([]uint32, n), late: make([]uint32, n)}
	})
	s0 := smp.snap()
	runPhase(ls, openPh)
	s1 := smp.snap()
	bytes1 := linkBytes(ls)

	runtime.ReadMemStats(&ms1)
	closedPh := phases(func(l int) *phase {
		return &phase{picks: in.closed[l], window: window, duration: closedDur, record: true,
			perSecond: make([]atomic.Uint32, int(closedDur/time.Second)+1)}
	})
	runPhase(ls, closedPh)
	closedWall := time.Duration(nanotime() - closedPh[0].start)
	runtime.ReadMemStats(&ms2)
	s2 := smp.snap()
	after := st.counters()
	close(smp.stop)
	smp.done.Wait()

	r := &result{Workload: w.name, Seed: o.seed, Digest: in.digest, Samples: map[string]int{},
		Windows: map[string][]float64{}, Metrics: map[string]float64{}}
	for _, l := range ls {
		r.Attempted += l.attempted.Load()
		r.Failed += l.failed.Load()
	}
	m := r.Metrics
	m["setup_s"] = quantile(setups, 0.5)
	r.Samples["setup_s"] = len(setups)

	// Open phase: latency from the intended send time.
	windowLen := time.Second
	if openDur < 4*time.Second {
		windowLen = openDur / 4
	}
	var all, late []uint32
	byWindow := make([][]uint32, int(openDur/windowLen))
	for l, ph := range openPh {
		all = append(all, ph.lat...)
		late = append(late, ph.late...)
		for i, a := range in.open[l] {
			if wi := int(a.at / int64(windowLen)); wi < len(byWindow) {
				byWindow[wi] = append(byWindow[wi], ph.lat[i])
			}
		}
		m["bench.backlog_max"] = max(m["bench.backlog_max"], float64(ph.backlogMax))
		// Still falling behind at the end: the last arrival went out later
		// than the middle one did, by more than scheduling noise.
		if n := len(ph.late); n > 1 && ph.late[n-1] > uint32(10*time.Millisecond) && ph.late[n-1] > ph.late[n/2] {
			r.Overloaded = true
		}
	}
	slices.Sort(all)
	slices.Sort(late)
	var p99s []float64
	for _, lat := range byWindow {
		slices.Sort(lat)
		p99s = append(p99s, rank(lat, 0.99))
		r.Windows["open_p50_us"] = append(r.Windows["open_p50_us"], rank(lat, 0.5))
	}
	r.Windows["open_p99_us"] = p99s
	m["bench.open_p50_us"] = rank(all, 0.5)
	m["bench.open_p99_quiet_us"] = quantile(p99s, 0.25)
	m["bench.open_p99_whole_us"] = rank(all, 0.99)
	m["bench.open_p999_us"] = rank(all, 0.999)
	if r.Overloaded {
		// No quiet-window tail exists under a growing backlog; the whole
		// phase, queueing included, is the only honest figure.
		m["bench.open_p99_quiet_us"] = m["bench.open_p99_whole_us"]
	}
	m["bench.stalled_windows"] = 0
	for _, p := range p99s {
		if p > 4*m["bench.open_p99_quiet_us"] {
			m["bench.stalled_windows"]++
		}
	}
	m["bench.gen_late_p99_us"] = rank(late, 0.99)
	r.Samples["bench.open_p50_us"] = len(all)
	r.Samples["bench.open_p99_quiet_us"] = len(byWindow)

	openQueries := float64(s1.attempted - s0.attempted)
	cpu, cpuWindows := smp.cpuPerQuery(s0, s1)
	m["cpu_us_per_query"] = cpu / 1e3
	r.Samples["cpu_us_per_query"] = len(cpuWindows)
	r.Windows["open_cpu_ns_per_query"] = cpuWindows
	m["wire_bytes_per_query"] = float64(bytes1-bytes0) / openQueries

	// Closed phase: allocations per query, and verified replies per full
	// second, the median second.
	m["allocs_per_query"] = ratio(float64(ms2.Mallocs-ms1.Mallocs), float64(s2.attempted-s1.attempted))
	var perSec []float64
	for sec := 0; sec < int(closedDur/time.Second); sec++ {
		var n uint32
		for _, ph := range closedPh {
			n += ph.perSecond[sec].Load()
		}
		perSec = append(perSec, float64(n))
	}
	r.Windows["closed_qps"] = perSec
	if len(perSec) >= 3 {
		m["bench.closed_qps"] = quantile(perSec, 0.5)
	} else {
		var okd uint32
		for _, ph := range closedPh {
			for i := range ph.perSecond {
				okd += ph.perSecond[i].Load()
			}
		}
		m["bench.closed_qps"] = float64(okd) / closedWall.Seconds()
	}
	r.Samples["bench.closed_qps"] = max(len(perSec), 1)

	m["bench.fail_ratio"] = float64(r.Failed) / float64(max(r.Attempted, 1))
	_, rss := cpuNanos()
	m["max_rss_mb"] = float64(rss) / 1024
	m["bench.gc_pause_total_ms"] = float64(ms2.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["dnsserver.stream_miss_goroutines_peak"] = float64(max(smp.goroutinePeak.Load()-int64(baseGoroutines), 0))
	after.sub(before).metrics(m)

	if o.trace {
		if err := traceLayers(in, o, m); err != nil {
			return nil, fmt.Errorf("bench: layer replay: %w", err)
		}
	}
	return r, nil
}

func linkBytes(ls []*lane) (n uint64) {
	for _, l := range ls {
		n += l.link.bytes()
	}
	return n
}

// counters are the proxy's own cumulative counts the per-layer ratios are
// cut from.
type counters struct {
	hits, misses, coalesced, evictions, rejects, epochs, bytesLive int64
	reads, datagrams, fastHits, spills                             uint64
	dials, poolFailures, refusals                                  uint64
}

func (s *stack) counters() counters {
	cs := s.proxy.CacheStats()
	c := counters{
		hits: cs.Hits + cs.StaleHits, misses: cs.Misses, coalesced: cs.Coalesced,
		evictions: cs.Evictions, rejects: cs.AdmissionRejects, epochs: cs.ArenaEpochs, bytesLive: cs.BytesLive,
	}
	for _, sh := range s.proxy.UDPShardStats() {
		c.reads += sh.Reads
		c.datagrams += sh.Datagrams
		c.fastHits += sh.FastHits
		c.spills += sh.Spills
	}
	snap := s.proxy.Telemetry().Snapshot()
	c.dials, c.poolFailures = snap.PoolDials, snap.PoolFailures
	g := s.proxy.Guard().Report()
	c.refusals = g.Drops + g.Slips + g.Refusals
	return c
}

// sub is the change since before; bytesLive is a gauge and stays.
func (c counters) sub(b counters) counters {
	c.hits -= b.hits
	c.misses -= b.misses
	c.coalesced -= b.coalesced
	c.evictions -= b.evictions
	c.rejects -= b.rejects
	c.epochs -= b.epochs
	c.reads -= b.reads
	c.datagrams -= b.datagrams
	c.fastHits -= b.fastHits
	c.spills -= b.spills
	c.dials -= b.dials
	c.poolFailures -= b.poolFailures
	c.refusals -= b.refusals
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (c counters) metrics(m map[string]float64) {
	lookups := float64(c.hits + c.misses + c.coalesced)
	m["dnscache.hit_ratio"] = ratio(float64(c.hits), lookups)
	m["dnscache.coalesced_ratio"] = ratio(float64(c.coalesced), lookups)
	m["dnscache.evictions_per_miss"] = ratio(float64(c.evictions), float64(c.misses))
	m["dnscache.admission_reject_ratio"] = ratio(float64(c.rejects), float64(c.misses))
	m["dnscache.arena_epochs"] = float64(c.epochs)
	m["dnscache.bytes_live"] = float64(c.bytesLive)
	m["udpio.datagrams_per_read"] = ratio(float64(c.datagrams), float64(c.reads))
	m["dnsserver.udp_fast_hit_ratio"] = ratio(float64(c.fastHits), float64(c.datagrams))
	m["dnsserver.udp_spills"] = float64(c.spills)
	m["dnstransport.pool_dials"] = float64(c.dials)
	m["dnstransport.pool_failures"] = float64(c.poolFailures)
	m["guard.refusals"] = float64(c.refusals)
}
