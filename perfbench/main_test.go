package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/template"
)

// spec is the part of BENCHMARK.json the tests check runs against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var bench spec

// TestMain reads BENCHMARK.json from the repository root, then runs the
// tests in a temporary directory, because runs write under .bench_build/.
func TestMain(m *testing.M) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &bench)
	}
	if err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	if err := os.Chdir(dir); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runShort runs one short benchmark in process and returns its result line
// and the report lines above it.
func runShort(t *testing.T, workload, seed, trace string) (result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "0.5", "--trace", trace}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v", args, err)
	}
	return res, strings.Join(lines[:len(lines)-1], "\n")
}

// checkRun asserts a run answered everything correctly and reported
// exactly the metrics of want, each with its unit, in the result line and
// in the report.
func checkRun(t *testing.T, name string, res result, report string, want []metricSpec) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	if !printsMetric(report, "failed_frac", "ratio") {
		t.Errorf("%s: report lacks failed_frac", name)
	}
	if !strings.Contains(report, "trace true") && !printsMetric(report, "latency_p99_ms", "ms") {
		t.Errorf("%s: report lacks latency_p99_ms", name)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", name, len(res.Metrics), len(want))
	}
	for _, ms := range want {
		got, ok := res.Metrics[ms.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, ms.Name)
		case got.Unit != ms.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", name, ms.Name, got.Unit, ms.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", name, ms.Name, got.Value)
		}
		if !printsMetric(report, ms.Name, ms.Unit) {
			t.Errorf("%s: report does not print %s with unit %s", name, ms.Name, ms.Unit)
		}
	}
}

// printsMetric reports whether a report line reads "<name> <value> <unit>".
func printsMetric(report, name, unit string) bool {
	for _, line := range strings.Split(report, "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
}

// TestEndToEndOnTwoSeeds: every workload prints every end-to-end metric
// and answers every document correctly (failed_frac 0) on two seeds.
func TestEndToEndOnTwoSeeds(t *testing.T) {
	for _, w := range workloadNames {
		for _, seed := range []string{"1", "2"} {
			res, report := runShort(t, w, seed, "0")
			checkRun(t, w+"/seed"+seed, res, report, bench.EndToEnd)
			for _, ms := range bench.EndToEnd {
				if v := res.Metrics[ms.Name].Value; v <= 0 {
					t.Errorf("%s/seed%s: %s = %v, want > 0", w, seed, ms.Name, v)
				}
			}
		}
	}
}

// TestTracedRun: every workload's traced run prints every per-layer metric,
// the serve-cold self times add up to the handler time, and the bulk
// template hit ratio repeats exactly for a seed.
func TestTracedRun(t *testing.T) {
	for _, w := range workloadNames {
		res, report := runShort(t, w, "1", "1")
		checkRun(t, w+"/trace", res, report, bench.PerLayer)
		switch w {
		case serveCold:
			if r := res.Metrics["trace.selfsum_ratio"].Value; math.Abs(r-1) > 0.15 {
				t.Errorf("serve-cold self times sum to %.3f of the handler time, want within 0.15 of 1", r)
			}
		case bulkRecrawl:
			again, _ := runShort(t, w, "1", "1")
			a, b := res.Metrics["template.hit_ratio"].Value, again.Metrics["template.hit_ratio"].Value
			if a != b || a <= 0 {
				t.Errorf("bulk-recrawl template.hit_ratio %v then %v, want one positive value", a, b)
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errb); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("unknown workload printed %q", out.String())
	}
}

func TestRotateDigitsKeepsMarkup(t *testing.T) {
	got := rotateDigits(`<td width="10">Born 1921 &#39;x&#39; 9</td>`, 1)
	if want := `<td width="10">Born 2032 &#39;x&#39; 0</td>`; got != want {
		t.Fatalf("rotateDigits = %q, want %q", got, want)
	}
	page := corpus.TestSites(corpus.Obituaries)[0].Generate(3).HTML
	for k := 1; k <= bulkRecrawls; k++ {
		crawl := rotateDigits(page, k)
		if crawl == page || len(crawl) != len(page) {
			t.Fatalf("re-crawl %d did not change only digits", k)
		}
		if template.FingerprintDoc(crawl) != template.FingerprintDoc(page) {
			t.Fatalf("re-crawl %d changed the template fingerprint", k)
		}
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a, err := generate(serveHot, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(serveHot, 7)
	c, _ := generate(serveHot, 8)
	if a.docs[0].html != b.docs[0].html || a.docs[hotSet].html != b.docs[hotSet].html {
		t.Fatal("seed 7 gave different documents on two generations")
	}
	if a.docs[0].html == c.docs[0].html {
		t.Fatal("seeds 7 and 8 gave the same first document")
	}
}
