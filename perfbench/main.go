// Command perfbench is the repository's end-to-end benchmark: it builds the
// serving handler (as cmd/serve does) or the bulk engine (as cmd/bulk does),
// drives one seeded workload through it in process, checks every answer,
// and prints the metrics BENCHMARK.json names. See README.md.
//
//	perfbench --workload serve-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it makes
// the traced run and prints the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
)

// clients is the closed loop's concurrency: the crawler-fleet callers (or
// bulk workers) that each wait for their reply, one per CPU of the 2-CPU
// host the benchmark was sized on.
const clients = 2

// buildDir holds everything a run leaves behind: the binary, the Go build
// cache, journals and span files.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload: one of %v", workloadNames))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	// Never more Ps than CPUs, and no more than the two the closed loop
	// was sized for.
	if runtime.GOMAXPROCS(0) > clients {
		runtime.GOMAXPROCS(clients)
	}
	res, err := runWorkload(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func runWorkload(name string, seed int64, dur time.Duration, traced bool, out io.Writer) (*result, error) {
	w, err := generate(name, seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	fmt.Fprintf(out, "workload %s seed %d trace %v\n", name, seed, traced)
	var (
		m      metrics
		v      verdict
		served []int32
	)
	switch {
	case traced:
		m, v, served, err = runTraced(w, seed, dur, tmp, out)
	case w.bulk():
		m, v, served, err = endToEndBulk(w, dur, tmp, out)
	default:
		m, v, served, err = endToEndServing(w, dur, out)
	}
	if err != nil {
		return nil, err
	}

	props, _ := json.Marshal(w.measureProperties(served))
	fmt.Fprintf(out, "inputs %s\n", props)
	res := &result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: m}
	if v.attempted == 0 {
		res.Correct = false
	}
	fmt.Fprintf(out, "%-36s %16.6g %s\n", "failed_frac", float64(v.failed)/math.Max(1, float64(v.attempted)), "ratio")
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-36s %16.6g %s\n", n, m[n].Value, m[n].Unit)
		if math.IsNaN(m[n].Value) || math.IsInf(m[n].Value, 0) {
			fmt.Fprintf(out, "metric %s was not measured\n", n)
			m.set(n, 0, m[n].Unit)
			res.Correct = false
		}
	}
	return res, nil
}

// setupRepeats is how many times a run builds the system under test; the
// reported setup_s is the median.
const setupRepeats = 101

// warmupFor is the untimed closed-loop stretch before the timed window,
// letting pools fill and lazy set-up finish.
func warmupFor(dur time.Duration) time.Duration { return dur / 10 }

func endToEndServing(w *workload, dur time.Duration, out io.Writer) (metrics, verdict, []int32, error) {
	base := liveHeap()
	v := newVerifier(w)
	rec := newRecorder()
	var pos atomic.Int64
	var setups []float64
	var srv *httpapi.Server
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		s, _, err := newDeployed()
		if err != nil {
			return nil, verdict{}, nil, err
		}
		i := w.docAt(int(pos.Add(1) - 1))
		status, body := rec.serve(s, w.docs[i])
		setups = append(setups, time.Since(t0).Seconds())
		v.check(i, status, body)
		if srv != nil {
			if err := srv.Close(); err != nil {
				return nil, verdict{}, nil, err
			}
		}
		srv = s
	}
	prewarm(srv, w, v)
	closedLoop(srv, w, v, &pos, clients, warmupFor(dur))
	res := closedLoop(srv, w, v, &pos, clients, dur)
	vd := v.finish()
	v.release()

	m := metrics{}
	setSetup(m, setups, out)
	setWindow(m, res.summarize(), out)
	m.set("correct_frac", float64(vd.truthOK)/float64(vd.answered), "ratio")
	res = loadResult{}
	m.set("heap_live_mb", (liveHeap()-base)/1e6, "MB")
	runtime.KeepAlive(srv)
	if err := srv.Close(); err != nil {
		return nil, verdict{}, nil, err
	}
	return m, vd, w.prefix(int(pos.Load())), nil
}

// setSetup files the median set-up time.
func setSetup(m metrics, setups []float64, out io.Writer) {
	s := append([]float64(nil), setups...)
	sort.Float64s(s)
	m.set("setup_s", quantile(s, 0.5), "s")
	fmt.Fprintf(out, "set-ups %d: min %.6f s, median %.6f s, max %.6f s\n",
		len(s), s[0], quantile(s, 0.5), s[len(s)-1])
}

// setWindow files the timed window's binned figures. The p99 is printed
// but not filed as a metric: on serve-hot it falls where the host's
// millisecond-scale CPU preemptions land, and between two sets of ten runs
// of the same code its median moved by a third, more than the largest
// regression bound a metric may carry.
func setWindow(m metrics, ws windowStats, out io.Writer) {
	m.set("docs_per_s", ws.rate, "docs/s")
	m.set("latency_p50_ms", ws.p50, "ms")
	fmt.Fprintf(out, "%-36s %16.6g %s\n", "latency_p99_ms", ws.p99, "ms")
	fmt.Fprintf(out, "latency samples %d in %.0f-second bins\n", ws.samples, binWidth)
}

// liveHeap returns the live heap in bytes after two GCs. The second GC
// drops what sync.Pools still hold: how much of a pool survives one GC
// depends on when the previous cycle ran, which made a one-GC figure jump
// by 15% between runs of the same code.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return math.NaN()
	}
	return float64(s[0].Value.Uint64())
}
