// Command perfbench is the repository benchmark: it runs one named
// workload against the program's public entry points for a fixed
// measuring time, checks the program's outputs, and prints every
// metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload runtime-burst|fed-2node|serve-open --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// makes a separate traced run that reports the per-layer metrics, the
// tracing overhead, and writes the span file. README.md in this
// directory describes the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run writes (span files, the serve data
// directories); it lies inside the checkout the benchmark runs from.
const outDir = ".bench_build/out"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and output-check failures.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// problem records a failed output check; the run then reports
// correct=false and exits non-zero.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

var workloads = map[string]func(options, *report) error{
	"runtime-burst": runRuntimeBurst,
	"fed-2node":     runFed2Node,
	"serve-open":    runServeOpen,
}

func main() {
	var o options
	var secs int
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (runtime-burst, fed-2node, serve-open)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 20, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	o.seconds = float64(secs)
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	rep := newReport()
	if err := run(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, p := range rep.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	out, err := json.Marshal(result{
		Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) || math.IsInf(sorted[i+1], 1) {
		return sorted[min(i+1, len(sorted)-1)]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the span file: a header, then one line per span
// "id parent name proc start_ns end_ns" (proc "-" when the seam call
// carries no process id).
func writeSpans(workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.txt", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench spans v1 workload=%s seed=%d count=%d\n# id parent name proc start_ns end_ns\n", workload, seed, len(spans))
	for i, s := range spans {
		proc := s.proc
		if proc == "" {
			proc = "-"
		}
		fmt.Fprintf(&b, "%d %d %s %s %d %d\n", i+1, s.parent, spanKindNames[s.kind], proc, s.start, s.end)
	}
	if _, err := f.WriteString(b.String()); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}
