// Command perfbench is the repository's benchmark. One invocation runs one
// workload in this process and prints every end-to-end metric (or, with
// -trace 1, every per-layer metric) by name, unit and better direction,
// then one JSON line with the result. It exits 1 when any correctness
// check fails and 2 on bad flags.
//
//	go run . -workload kv-txn -seed 1 -seconds 10 -trace 0
//
// Workloads, metrics and the layer each metric belongs to are described in
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef fixes a metric's unit, its better direction, and which
// workloads measure it.
type metricDef struct {
	unit   string
	better string // "higher" or "lower"
	scope  scope
}

type scope uint8

const (
	everyWorkload scope = iota
	servedOnly          // the served workloads
	simOnly             // sim-vacation
)

func (s scope) covers(workload string) bool {
	return s == everyWorkload || (s == simOnly) == (workload == simName)
}

var endToEnd = map[string]metricDef{
	"throughput_rps": {"1/s", "higher", everyWorkload},
	"p50_us":         {"us", "lower", everyWorkload},
	"p99_us":         {"us", "lower", everyWorkload},
	"cpu_us_per_req": {"us", "lower", everyWorkload},
	"setup_s":        {"s", "lower", everyWorkload},
	"heap_mb":        {"MB", "lower", everyWorkload},
}

// report is the run's output: named metric values plus the outcome of
// every correctness check.
type report struct {
	workload  string
	values    map[string]float64
	defs      map[string]metricDef
	extra     map[string]float64 // printed for reading, not part of the JSON result
	attempted uint64
	failed    uint64
	problems  []string
}

func newReport(workload string, defs map[string]metricDef) *report {
	return &report{workload: workload, values: map[string]float64{}, defs: defs, extra: map[string]float64{}}
}

func (r *report) set(name string, v float64) {
	if _, ok := r.defs[name]; !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.values[name] = v
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable table and then, as the last line, the
// JSON result. Every declared metric must have been set.
func (r *report) print() error {
	names := make([]string, 0, len(r.defs))
	for n := range r.defs {
		names = append(names, n)
	}
	sort.Strings(names)
	res := jsonResult{
		Correct:   len(r.problems) == 0 && r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	fmt.Printf("== %s ==\n", r.workload)
	for _, n := range names {
		d := r.defs[n]
		v, ok := r.values[n]
		if !ok && d.scope.covers(r.workload) {
			return fmt.Errorf("metric %s was not measured", n)
		}
		fmt.Printf("%-34s %16.6g %-8s %s is better\n", n, v, d.unit, d.better)
		res.Metrics[n] = jsonMetric{Value: v, Unit: d.unit}
	}
	extras := make([]string, 0, len(r.extra))
	for n := range r.extra {
		extras = append(extras, n)
	}
	sort.Strings(extras)
	for _, n := range extras {
		fmt.Printf("%-34s %16.6g\n", n, r.extra[n])
	}
	fmt.Printf("%-34s %16.6g\n", "failed_frac", float64(r.failed)/float64(max(r.attempted, 1)))
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: kv-txn, set-rr, hot-writes, sim-vacation, or hot-writes-sets (README.md, Findings 1)")
		seed    = flag.Int64("seed", 1, "seed every input is made from")
		seconds = flag.Int("seconds", 10, "length of the timed phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
		profile = flag.String("profile", "", "traced run: write the CPU profile of the live phase here")
		scratch = flag.String("scratch", ".bench_build", "directory for files a run leaves behind")
		speed   = flag.Bool("hostspeed", false, "time the host-speed kernel, print its ns and exit (see hostspeed.go)")
	)
	flag.Parse()
	if *speed {
		hostSpeedMode()
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	var (
		r   *report
		err error
	)
	spec, served := servedSpecs[*name]
	switch {
	case served && *trace == 0:
		r, err = timedServed(spec, *seed, d, *scratch)
	case served:
		r, err = tracedServed(spec, *seed, d, *scratch, *profile)
	case *name == simName:
		r, err = runSim(*seed, d, *trace == 1, *profile)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err == nil {
		err = r.print()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(r.problems) > 0 || r.failed > 0 {
		os.Exit(1)
	}
}

// timedServed is the untraced run of a served workload.
func timedServed(spec *servedSpec, seed int64, d time.Duration, scratch string) (*report, error) {
	lr, err := runServed(spec, seed, d, scratch, servers, "")
	if err != nil {
		return nil, err
	}
	r := newReport(spec.name, endToEnd)
	r.attempted, r.failed, r.problems = lr.done, lr.failed, lr.problems
	// Host-time figures are scaled to the reference host speed; the raw
	// figures are printed beside them.
	for _, m := range []struct {
		name string
		get  func(p phase) float64
	}{
		{"throughput_rps", func(p phase) float64 { return p.rps }},
		{"p50_us", func(p phase) float64 { return p.p50NS / 1e3 }},
		{"p99_us", func(p phase) float64 { return p.p99NS / 1e3 }},
		{"cpu_us_per_req", func(p phase) float64 { return p.cpuUSPerReq }},
		{"setup_s", func(p phase) float64 { return p.setupS }},
	} {
		r.set(m.name, lr.iqm(func(p phase) float64 { return m.get(p.atReferenceSpeed()) }))
		r.extra["raw."+m.name] = lr.iqm(m.get)
	}
	r.set("heap_mb", lr.iqm(func(p phase) float64 { return p.heapBytes })/(1<<20))
	r.extra["host_slowdown"] = lr.iqm(func(p phase) float64 { return p.slow })
	r.extra["kernel_parent_cpu_frac"] = lr.host.parentCPUFrac()
	r.extra["latency_samples"] = float64(lr.lat.n)
	return r, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// interquartileMean is the mean of the values left after dropping the
// lowest and the highest quarter.
func interquartileMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInUse is the live Go heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
