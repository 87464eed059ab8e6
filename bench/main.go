// Command bench is the repository's benchmark: it stands the production
// forwarding path up in-process on kernel loopback sockets, drives it with
// a thin seeded load generator, checks every reply, and prints end-to-end
// and per-layer metrics by name. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// report is the -out file: every metric of every workload run, with what
// is needed to tell two reports apart.
type report struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Traced  bool      `json:"traced"`
	NProc   int       `json:"nproc"`
	Go      string    `json:"go"`
	Kernel  string    `json:"kernel"`
	Commit  string    `json:"commit"`
	Results []*result `json:"results"`
}

// value is how a metric appears in the result line and the report.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the last line of standard output: the contract with the driver.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// commit is the revision measured: what run.sh saw, else what the
// toolchain stamped into the binary.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// config is a parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	runs     int
	out      string
	// Tests set these; no flag does.
	setups       int
	timeout      time.Duration
	wrongAnswers bool
}

func main() {
	var (
		c       = config{setups: 5, timeout: clientTimeout}
		trace   = flag.Int("trace", 0, "1: also replay the workload through the layers, report per-layer metrics and write the span file")
		short   = flag.Bool("short", false, "one-second phases, for smoke tests")
		compare = flag.Bool("compare", false, "compare two report files given as arguments instead of running")
	)
	flag.StringVar(&c.workload, "workload", "", "run only this workload (default: all four)")
	flag.Int64Var(&c.seed, "seed", 1, "seed for name choice and arrival gaps")
	flag.Float64Var(&c.seconds, "seconds", 30, "measured seconds per workload: warm-up, open and closed phases")
	flag.IntVar(&c.runs, "runs", 1, "run each workload this many times, on seeds seed, seed+1, ...: a run-set for -compare")
	flag.StringVar(&c.out, "out", "bench/out/bench.json", "report file; span files are written beside it")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		if err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *short {
		c.seconds = 2.5
	}
	c.trace = *trace == 1
	os.Exit(execute(c, os.Stdout))
}

// execute runs the workloads c names, prints one line per metric and the
// result line to stdout, writes the report, and returns the exit code:
// non-zero when a run could not be made or any reply failed verification.
func execute(c config, stdout io.Writer) int {
	run := workloads
	if c.workload != "" {
		w, ok := findWorkload(c.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", c.workload)
			return 2
		}
		run = []workload{w}
	}
	if err := os.MkdirAll(filepath.Dir(c.out), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	rep := report{Seed: c.seed, Seconds: c.seconds, Traced: c.trace, NProc: runtime.NumCPU(),
		Go: runtime.Version(), Kernel: kernel(), Commit: commit()}
	specs := endToEnd
	if c.trace {
		specs = perLayer
	}
	last := line{Metrics: map[string]value{}}
	for i := 0; i < c.runs; i++ {
		for _, w := range run {
			r, err := runWorkload(w, options{
				seed: c.seed + int64(i), seconds: c.seconds, trace: c.trace,
				setups: c.setups, timeout: c.timeout, wrongAnswers: c.wrongAnswers,
				traceFile: filepath.Join(filepath.Dir(c.out), "trace_"+w.name+".json"),
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			rep.Results = append(rep.Results, r)
			for _, s := range slices.Concat(endToEnd, perLayer) {
				if v, ok := r.Metrics[s.Name]; ok {
					fmt.Fprintf(stdout, "%s %s %.6g %s\n", w.name, s.Name, v, s.Unit)
				}
			}
			if r.Overloaded {
				fmt.Fprintf(stdout, "%s overloaded: the backlog was still growing when the open phase ended\n", w.name)
			}
			last.Attempted += r.Attempted
			last.Failed += r.Failed
		}
	}
	last.Correct = last.Failed == 0
	// The result line: one value per metric, the median when a workload ran
	// more than once, prefixed by the workload when more than one ran.
	for _, w := range run {
		for _, s := range specs {
			key := s.Name
			if len(run) > 1 {
				key = w.name + "." + s.Name
			}
			last.Metrics[key] = value{quantile(rep.values(w.name, s.Name), 0.5), s.Unit}
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(c.out, append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	buf, _ = json.Marshal(last)
	fmt.Fprintf(stdout, "%s\n", buf)
	if !last.Correct {
		return 1
	}
	return 0
}
