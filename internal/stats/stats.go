// Package stats provides the small statistical toolkit the DoH cost study
// needs: empirical CDFs, five-number summaries for the paper's
// whisker-spans-full-range box plots, Poisson arrival processes for the
// head-of-line-blocking experiment, and deterministic RNG plumbing so every
// figure regenerates bit-identically for a given seed.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// CDF is an empirical cumulative distribution function over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF copies and sorts samples. An empty sample set is valid; all
// queries against it return NaN.
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len reports the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the p-quantile (0 <= p <= 1) using nearest-rank
// interpolation; Quantile(0.5) is the median.
func (c *CDF) Quantile(p float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c.sorted[lo]
	}
	frac := pos - float64(lo)
	return c.sorted[lo]*(1-frac) + c.sorted[hi]*frac
}

// Summary is the five-number summary plus mean, matching the paper's box
// plots whose whiskers span the full range of values.
type Summary struct {
	N      int
	Min    float64
	P25    float64
	Median float64
	P75    float64
	Max    float64
	Mean   float64
}

// Summarize computes a Summary over samples.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		nan := math.NaN()
		return Summary{Min: nan, P25: nan, Median: nan, P75: nan, Max: nan, Mean: nan}
	}
	c := NewCDF(samples)
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return Summary{
		N:      len(samples),
		Min:    c.Quantile(0),
		P25:    c.Quantile(0.25),
		Median: c.Quantile(0.5),
		P75:    c.Quantile(0.75),
		Max:    c.Quantile(1),
		Mean:   sum / float64(len(samples)),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.1f p25=%.1f med=%.1f p75=%.1f max=%.1f mean=%.1f",
		s.N, s.Min, s.P25, s.Median, s.P75, s.Max, s.Mean)
}

// PoissonArrivals returns event offsets from zero for a Poisson process with
// the given mean rate (events/second) observed for the given duration.
// Inter-arrival gaps are exponentially distributed. The slice is sorted and
// may be empty for short durations.
func PoissonArrivals(rng *rand.Rand, rate float64, duration time.Duration) []time.Duration {
	if rate <= 0 || duration <= 0 {
		return nil
	}
	var arrivals []time.Duration
	t := time.Duration(0)
	for {
		gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		t += gap
		if t >= duration {
			return arrivals
		}
		arrivals = append(arrivals, t)
	}
}

// Zipf returns n weights following a Zipf distribution with exponent s,
// normalized to sum to 1. Rank 0 is the most popular.
func Zipf(n int, s float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// LogNormal draws from a log-normal distribution with the given parameters
// of the underlying normal.
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(rng.NormFloat64()*sigma + mu)
}

// ASCIICDF renders a crude terminal plot of one or more CDFs sharing an x
// axis, for the cmd tools' --plot output. Series maps label → samples.
func ASCIICDF(series map[string][]float64, width, height int, xlabel string) string {
	if width < 20 {
		width = 60
	}
	if height < 5 {
		height = 15
	}
	var xmax float64
	cdfs := make(map[string]*CDF, len(series))
	labels := make([]string, 0, len(series))
	for label, samples := range series {
		c := NewCDF(samples)
		if c.Len() == 0 {
			continue
		}
		cdfs[label] = c
		labels = append(labels, label)
		if m := c.Quantile(0.99); m > xmax {
			xmax = m
		}
	}
	sort.Strings(labels)
	if xmax == 0 || len(labels) == 0 {
		return "(no data)\n"
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := "*+ox#@%&"
	for li, label := range labels {
		c := cdfs[label]
		mark := marks[li%len(marks)]
		for col := 0; col < width; col++ {
			x := xmax * float64(col) / float64(width-1)
			p := c.At(x)
			row := height - 1 - int(p*float64(height-1))
			grid[row][col] = mark
		}
	}
	var sb strings.Builder
	for i, row := range grid {
		p := 1 - float64(i)/float64(height-1)
		fmt.Fprintf(&sb, "%4.2f |%s|\n", p, row)
	}
	fmt.Fprintf(&sb, "      0%s%.0f  (%s)\n", strings.Repeat(" ", width-10), xmax, xlabel)
	for li, label := range labels {
		fmt.Fprintf(&sb, "      %c = %s\n", marks[li%len(marks)], label)
	}
	return sb.String()
}
