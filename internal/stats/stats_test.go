package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{4, 1, 3, 2})
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := c.At(2); got != 0.5 {
		t.Errorf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(4); got != 1 {
		t.Errorf("At(4) = %v, want 1", got)
	}
	if got := c.Quantile(0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("min = %v", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Errorf("max = %v", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if !math.IsNaN(c.At(1)) || !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF should return NaN")
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	c := NewCDF(in)
	in[0] = 100
	if got := c.Quantile(1); got != 3 {
		t.Errorf("CDF aliased caller slice: max = %v", got)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				samples = append(samples, v)
			}
		}
		if len(samples) == 0 {
			return true
		}
		c := NewCDF(samples)
		if a > b {
			a, b = b, a
		}
		return c.At(a) <= c.At(b) && c.At(a) >= 0 && c.At(b) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = rng.NormFloat64() * 10
	}
	c := NewCDF(samples)
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.01 {
		q := c.Quantile(p)
		if q < prev {
			t.Fatalf("quantile not monotone at p=%.2f: %v < %v", p, q, prev)
		}
		prev = q
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Median != 3 || s.Max != 5 || s.Mean != 3 {
		t.Errorf("summary = %+v", s)
	}
	if !strings.Contains(s.String(), "med=3.0") {
		t.Errorf("String() = %s", s)
	}
	empty := Summarize(nil)
	if !math.IsNaN(empty.Median) {
		t.Error("empty summary should be NaN")
	}
}

func TestPoissonArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	arr := PoissonArrivals(rng, 10, 10*time.Second)
	// Mean 100 events; allow wide tolerance.
	if len(arr) < 60 || len(arr) > 150 {
		t.Errorf("got %d arrivals, want ~100", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatal("arrivals not sorted")
		}
	}
	if arr[len(arr)-1] >= 10*time.Second {
		t.Error("arrival past horizon")
	}
	if got := PoissonArrivals(rng, 0, time.Second); got != nil {
		t.Error("rate 0 should produce nil")
	}
}

func TestPoissonDeterministicBySeed(t *testing.T) {
	a := PoissonArrivals(rand.New(rand.NewSource(42)), 10, time.Second)
	b := PoissonArrivals(rand.New(rand.NewSource(42)), 10, time.Second)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different arrivals")
		}
	}
}

func TestZipf(t *testing.T) {
	w := Zipf(100, 1.0)
	var sum float64
	for i, v := range w {
		sum += v
		if i > 0 && v > w[i-1] {
			t.Fatal("zipf weights not decreasing")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
	if w[0] < 5*w[99] {
		t.Errorf("head not heavy enough: w0=%v w99=%v", w[0], w[99])
	}
	if Zipf(0, 1) != nil {
		t.Error("Zipf(0) should be nil")
	}
}

func TestWeightedChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := []float64{0.7, 0.2, 0.1}
	counts := make([]int, 3)
	for i := 0; i < 10000; i++ {
		counts[WeightedChoice(rng, w)]++
	}
	if counts[0] < 6500 || counts[0] > 7500 {
		t.Errorf("heavy weight chosen %d/10000, want ~7000", counts[0])
	}
	if counts[2] > counts[1] || counts[1] > counts[0] {
		t.Errorf("ordering violated: %v", counts)
	}
}

func TestLogNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var n int
	for i := 0; i < 1000; i++ {
		v := LogNormal(rng, 3, 0.5)
		if v <= 0 {
			t.Fatal("log-normal must be positive")
		}
		if v > math.Exp(3) {
			n++
		}
	}
	// Median of lognormal(mu=3) is e^3, so ~half should exceed it.
	if n < 400 || n > 600 {
		t.Errorf("%d/1000 above median, want ~500", n)
	}
}

func TestASCIICDF(t *testing.T) {
	out := ASCIICDF(map[string][]float64{
		"udp": {1, 2, 3, 4, 5},
		"doh": {10, 20, 30, 40, 50},
	}, 40, 10, "ms")
	if !strings.Contains(out, "udp") || !strings.Contains(out, "doh") || !strings.Contains(out, "ms") {
		t.Errorf("plot missing labels:\n%s", out)
	}
	if got := ASCIICDF(nil, 40, 10, "x"); !strings.Contains(got, "no data") {
		t.Errorf("empty plot = %q", got)
	}
}

// WeightedChoice picks an index according to the given weights (which need
// not be normalized).
func WeightedChoice(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	r := rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(weights) - 1
}
