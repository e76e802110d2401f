package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/wire"
)

// figure2ish is a small hr-delimited document every heuristic handles.
const figure2ish = `<html><body><div>
<hr><b>Alpha Person</b> died March 3, 1998. Services Friday. <br>
<hr><b>Beta Person</b> died March 4, 1998. Interment follows. <br>
<hr><b>Gamma Person</b> died March 5, 1998. Burial Saturday. <br>
<hr></div></body></html>`

// xmlFeed is a minimal XML-mode document.
const xmlFeed = `<feed><entry>a b</entry><entry>c d</entry><entry>e f</entry></feed>`

func htmlTasks(n int) []*Task {
	tasks := make([]*Task, n)
	for i := range tasks {
		tasks[i] = &Task{ID: fmt.Sprintf("t%d", i), Mode: "html", Doc: figure2ish}
	}
	return tasks
}

// runToWriter drains tasks through an engine into an in-memory sink.
func runToWriter(t *testing.T, eng *Engine, tasks []*Task) ([]Outcome, Stats) {
	t.Helper()
	var buf bytes.Buffer
	stats, err := eng.Run(context.Background(), NewSliceSource(tasks), NewWriterSink(&buf, nil), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return decodeOutcomes(t, buf.Bytes()), stats
}

func decodeOutcomes(t *testing.T, data []byte) []Outcome {
	t.Helper()
	var out []Outcome
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var o Outcome
		if err := json.Unmarshal(line, &o); err != nil {
			t.Fatalf("bad output line %q: %v", line, err)
		}
		out = append(out, o)
	}
	return out
}

func TestRunBasicOrderAndResults(t *testing.T) {
	tasks := htmlTasks(9)
	tasks[4] = &Task{ID: "xml", Mode: "xml", Doc: xmlFeed, SeparatorList: []string{"entry"}}
	outs, stats := runToWriter(t, New(Config{Workers: 4}), tasks)

	if stats.OK != 9 || stats.Read != 9 || stats.Failed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(outs) != 9 {
		t.Fatalf("got %d outcomes, want 9", len(outs))
	}
	for i, o := range outs {
		if o.Seq != i {
			t.Fatalf("outcome %d has seq %d; output must be in input order", i, o.Seq)
		}
		want := "hr"
		if i == 4 {
			want = "entry"
		}
		if o.Separator != want {
			t.Errorf("doc %d separator = %q, want %q", i, o.Separator, want)
		}
		if o.Error != "" {
			t.Errorf("doc %d unexpected error %q", i, o.Error)
		}
		if len(o.Scores) == 0 || len(o.Candidates) == 0 {
			t.Errorf("doc %d missing scores/candidates: %+v", i, o)
		}
		if i != 4 && len(o.Rankings) == 0 {
			t.Errorf("doc %d missing rankings: %+v", i, o)
		}
	}
}

func TestRunInlineErrors(t *testing.T) {
	tasks := htmlTasks(3)
	tasks[1] = &Task{ID: "empty", Mode: "html", Doc: "no tags at all"}
	outs, stats := runToWriter(t, New(Config{Workers: 2}), tasks)
	if stats.OK != 2 || stats.Failed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if outs[1].Error == "" || outs[1].Separator != "" {
		t.Fatalf("doc 1 should fail inline, got %+v", outs[1])
	}
	if outs[0].Error != "" || outs[2].Error != "" {
		t.Fatalf("neighbors must be unaffected: %+v %+v", outs[0], outs[2])
	}
}

func TestRunBadModeAndBadOntology(t *testing.T) {
	tasks := []*Task{
		{Mode: "pdf", Doc: figure2ish},
		{Mode: "html", Doc: figure2ish, Ontology: "object x; nonsense ("},
		{Mode: "html", Doc: figure2ish, Ontology: "obituary"},
	}
	outs, stats := runToWriter(t, New(Config{}), tasks)
	if stats.Failed != 2 || stats.OK != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if !strings.Contains(outs[0].Error, "mode") {
		t.Errorf("bad-mode error = %q", outs[0].Error)
	}
	if !strings.Contains(outs[1].Error, "ontology") {
		t.Errorf("bad-ontology error = %q", outs[1].Error)
	}
	if outs[2].Separator != "hr" {
		t.Errorf("builtin-ontology doc: %+v", outs[2])
	}
}

func TestRetryTransientFailures(t *testing.T) {
	faults := faultinject.New()
	faults.Inject("pipeline/attempt", faultinject.Fault{
		Err:   Transient(errors.New("flaky backend")),
		Times: 2,
	})
	metrics := obs.NewRegistry()
	eng := New(Config{
		Workers: 1,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		Faults:  faults,
		Metrics: metrics,
	})
	outs, stats := runToWriter(t, eng, htmlTasks(1))
	if stats.OK != 1 || stats.Retries != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if outs[0].Error != "" || outs[0].Attempts != 3 {
		t.Fatalf("outcome = %+v, want success on attempt 3", outs[0])
	}
	if got := metrics.Counter("boundary_bulk_retries_total", "").Value(); got != 2 {
		t.Errorf("boundary_bulk_retries_total = %v, want 2", got)
	}
}

func TestRetriesExhaustedReportInline(t *testing.T) {
	faults := faultinject.New()
	faults.Inject("pipeline/attempt", faultinject.Fault{
		Err: Transient(errors.New("always down")),
	})
	eng := New(Config{
		Retry:  RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
		Faults: faults,
	})
	outs, stats := runToWriter(t, eng, htmlTasks(1))
	if stats.Failed != 1 || stats.Retries != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if !strings.Contains(outs[0].Error, "always down") || outs[0].Attempts != 2 {
		t.Fatalf("outcome = %+v", outs[0])
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	faults := faultinject.New()
	faults.Inject("pipeline/attempt", faultinject.Fault{Err: errors.New("hard failure"), Times: 1})
	eng := New(Config{
		Retry:  RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond},
		Faults: faults,
	})
	outs, stats := runToWriter(t, eng, htmlTasks(1))
	if stats.Retries != 0 || stats.Failed != 1 {
		t.Fatalf("permanent errors must not retry: %+v", stats)
	}
	if outs[0].Attempts != 0 {
		t.Fatalf("attempts should be unset on first-try failure: %+v", outs[0])
	}
}

func TestAttemptTimeoutIsTransient(t *testing.T) {
	faults := faultinject.New()
	faults.Inject("pipeline/attempt", faultinject.Fault{Delay: time.Second, Times: 1})
	eng := New(Config{
		Workers:        1,
		AttemptTimeout: 10 * time.Millisecond,
		Retry:          RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
		Faults:         faults,
	})
	start := time.Now()
	outs, stats := runToWriter(t, eng, htmlTasks(1))
	if stats.OK != 1 || stats.Retries != 1 {
		t.Fatalf("stats = %+v (after %v)", stats, time.Since(start))
	}
	if outs[0].Attempts != 2 {
		t.Fatalf("outcome = %+v", outs[0])
	}
}

func TestAttemptPanicIsIsolated(t *testing.T) {
	faults := faultinject.New()
	faults.Inject("pipeline/attempt", faultinject.Fault{Panic: "boom", Times: 1})
	outs, stats := runToWriter(t, New(Config{Workers: 1, Faults: faults}), htmlTasks(2))
	if stats.Failed != 1 || stats.OK != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if !strings.Contains(outs[0].Error, "panicked") {
		t.Fatalf("outcome 0 = %+v", outs[0])
	}
}

func TestRunCancellation(t *testing.T) {
	faults := faultinject.New()
	faults.Inject("pipeline/attempt", faultinject.Fault{Delay: 50 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	eng := New(Config{Workers: 2, Faults: faults})

	done := make(chan struct{})
	var stats Stats
	var err error
	go func() {
		defer close(done)
		stats, err = eng.Run(ctx, NewSliceSource(htmlTasks(64)), NewWriterSink(&buf, nil), nil)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.OK == 64 {
		t.Fatalf("all documents completed despite cancel: %+v", stats)
	}
}

func TestMetricsOutcomes(t *testing.T) {
	metrics := obs.NewRegistry()
	tasks := htmlTasks(3)
	tasks[1] = &Task{Mode: "html", Doc: "plain text only"}
	eng := New(Config{Metrics: metrics})
	_, stats := runToWriter(t, eng, tasks)
	if stats.OK != 2 || stats.Failed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if got := metrics.Counter("boundary_bulk_documents_total", "", "outcome", "ok").Value(); got != 2 {
		t.Errorf("ok counter = %v, want 2", got)
	}
	if got := metrics.Counter("boundary_bulk_documents_total", "", "outcome", "error").Value(); got != 1 {
		t.Errorf("error counter = %v, want 1", got)
	}
}

func TestShardedSinkRoutesByShard(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewShardedFileSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	tasks := []*Task{
		{Mode: "html", Doc: figure2ish, Shard: "obituary"},
		{Mode: "html", Doc: figure2ish},
		{Mode: "html", Doc: figure2ish, Shard: "car/ad"},
		{Mode: "html", Doc: figure2ish, Shard: "obituary"},
	}
	stats, err := New(Config{Workers: 2}).Run(context.Background(), NewSliceSource(tasks), sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.OK != 4 {
		t.Fatalf("stats = %+v", stats)
	}
	for file, wantSeqs := range map[string][]int{
		"results-obituary.ndjson": {0, 3},
		"results.ndjson":          {1},
		"results-car-ad.ndjson":   {2},
	} {
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		outs := decodeOutcomes(t, data)
		var seqs []int
		for _, o := range outs {
			seqs = append(seqs, o.Seq)
		}
		if fmt.Sprint(seqs) != fmt.Sprint(wantSeqs) {
			t.Errorf("%s seqs = %v, want %v", file, seqs, wantSeqs)
		}
	}
}

func TestNDJSONSourceEnvelope(t *testing.T) {
	input := strings.Join([]string{
		`{"id":"a","html":"<p>x</p>","ontology":"obituary","shard":"s1"}`,
		``,
		`not json at all`,
		`{"id":"both","html":"<p>x</p>","xml":"<a/>"}`,
		`{"id":"neither"}`,
		`{"xml":"<f><e>1</e><e>2</e></f>","separator_list":["e"]}`,
	}, "\n")
	src := NewNDJSONSource(strings.NewReader(input), 0)
	var tasks []*Task
	for {
		tk, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, tk)
	}
	if len(tasks) != 5 {
		t.Fatalf("got %d tasks, want 5 (blank line skipped)", len(tasks))
	}
	if tasks[0].ID != "a" || tasks[0].Mode != "html" || tasks[0].Ontology != "obituary" || tasks[0].Shard != "s1" {
		t.Errorf("task 0 = %+v", tasks[0])
	}
	if tasks[1].invalid == nil || tasks[2].invalid == nil || tasks[3].invalid == nil {
		t.Errorf("lines 1-3 must be invalid: %v %v %v", tasks[1].invalid, tasks[2].invalid, tasks[3].invalid)
	}
	if tasks[4].Mode != "xml" || len(tasks[4].SeparatorList) != 1 {
		t.Errorf("task 4 = %+v", tasks[4])
	}
	for i, tk := range tasks {
		if tk.Seq != i {
			t.Errorf("task %d seq = %d; invalid lines must still consume a seq", i, tk.Seq)
		}
	}
}

// TestNDJSONSourceMatchesUnmarshal: every line decodes to what
// json.Unmarshal gives — the one-pass common shape, the fallback shapes
// (unknown keys, case-folded keys, duplicates), lines longer than the read
// buffer — and the tasks keep their strings after the buffers are reused.
// Error texts name the envelope type as they always have.
func TestNDJSONSourceMatchesUnmarshal(t *testing.T) {
	long := func(n int) string {
		b, _ := json.Marshal(wire.TaskLine{ID: fmt.Sprint("long", n),
			Request: wire.Request{HTML: strings.Repeat("<p>x&y é", n/10)}})
		return string(b)
	}
	lines := []string{
		long(200_000),
		`{"id":"a","html":"\u003cp\u003ex","ontology":"obituary","shard":"s1","separator_list":["p"]}`,
		`{"HTML":"<p>x","Id":"b"}`,
		`{"html":"<p>1","html":"<p>2","extra":{"k":[1,null]}}`,
		long(70_000),
		`{"shard":"s","xml":"<f><e>1</e></f>","separator_list":[]}`,
		long(100),
	}
	src := NewNDJSONSource(strings.NewReader(strings.Join(lines, "\n")), 0)
	var tasks []*Task
	for {
		tk, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, tk)
	}
	if len(tasks) != len(lines) {
		t.Fatalf("got %d tasks, want %d", len(tasks), len(lines))
	}
	for i, line := range lines {
		var want wire.TaskLine
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatal(err)
		}
		mode, doc, _ := want.Document()
		tk := tasks[i]
		if tk.invalid != nil || tk.ID != want.ID || tk.Shard != want.Shard || tk.Ontology != want.Ontology ||
			tk.Mode != mode || tk.Doc != doc || fmt.Sprintf("%#v", tk.SeparatorList) != fmt.Sprintf("%#v", want.SeparatorList) {
			t.Errorf("line %d: task %+v, want %+v", i, tk, want)
		}
	}

	for line, want := range map[string]string{
		`{"html":1}`:        "bad input line: json: cannot unmarshal number into Go struct field taskLine.Request.html of type string",
		`[1]`:               "bad input line: json: cannot unmarshal array into Go value of type pipeline.taskLine",
		`{"html":"x"} junk`: "bad input line: invalid character 'j' after top-level value",
	} {
		tk, err := NewNDJSONSource(strings.NewReader(line), 0).Next()
		if err != nil || tk.invalid == nil || tk.invalid.Error() != want {
			t.Errorf("%s: task error %v (source error %v), want %q", line, tk.invalid, err, want)
		}
	}
}

func TestNDJSONSourceOversizedLineFailsInlineAndContinues(t *testing.T) {
	big := `{"html":"` + strings.Repeat("x", 4096) + `"}`
	input := big + "\n" + `{"id":"ok","html":"<p>y</p>"}` + "\n"
	src := NewNDJSONSource(strings.NewReader(input), 1024)
	t1, err := src.Next()
	if err != nil || t1.invalid == nil || !strings.Contains(t1.invalid.Error(), "exceeds") {
		t.Fatalf("t1 = %+v, err = %v", t1, err)
	}
	t2, err := src.Next()
	if err != nil || t2.invalid != nil || t2.ID != "ok" {
		t.Fatalf("t2 = %+v, err = %v; stream must continue past an oversized line", t2, err)
	}
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestDirSource(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "b.html"), []byte(figure2ish), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.xml"), []byte(xmlFeed), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := NewDirSource(dir, "obituary", "myshard")
	if err != nil {
		t.Fatal(err)
	}
	first, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != "a.xml" || first.Mode != "xml" || first.Shard != "myshard" || first.Ontology != "obituary" {
		t.Errorf("first = %+v", first)
	}
	second, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != "b.html" || second.Mode != "html" {
		t.Errorf("second = %+v", second)
	}
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestJournalReplayAndTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.ndjson")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(0, "results.ndjson", 100); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(1, "results.ndjson", 230); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(2, "results-x.ndjson", 55); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-append: a torn, unparsable final line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"file":"resul`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.DoneCount() != 3 || !j2.Done(1) || j2.Done(3) {
		t.Fatalf("replayed journal: count=%d", j2.DoneCount())
	}
	off := j2.Offsets()
	if off["results.ndjson"] != 230 || off["results-x.ndjson"] != 55 {
		t.Fatalf("offsets = %v", off)
	}
}

// TestBulkRunOverFullCorpus is the acceptance run: every document of the
// 20-site test corpus goes through the bulk engine, sharded by domain, and
// every outcome must agree with the generator's ground truth.
func TestBulkRunOverFullCorpus(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewShardedFileSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	docs := corpus.TestDocuments()
	var tasks []*Task
	for _, d := range docs {
		tasks = append(tasks, &Task{
			ID:       d.Site.Name,
			Mode:     "html",
			Doc:      d.HTML,
			Ontology: string(d.Site.Domain),
			Shard:    string(d.Site.Domain),
		})
	}
	jr, err := OpenJournal(filepath.Join(dir, "checkpoint.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	stats, err := New(Config{Workers: 4}).Run(context.Background(), NewSliceSource(tasks), sink, jr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.OK != len(docs) || stats.Failed != 0 || stats.Degraded != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if jr.DoneCount() != len(docs) {
		t.Fatalf("journal has %d entries, want %d", jr.DoneCount(), len(docs))
	}

	// Each domain shard holds its five documents in input order, and every
	// discovered separator matches ground truth.
	bySeq := map[int]Outcome{}
	for _, d := range corpus.AllDomains {
		data, err := os.ReadFile(filepath.Join(dir, ShardFile(string(d))))
		if err != nil {
			t.Fatalf("shard %s: %v", d, err)
		}
		outs := decodeOutcomes(t, data)
		if len(outs) != 5 {
			t.Fatalf("shard %s has %d outcomes, want 5", d, len(outs))
		}
		prev := -1
		for _, o := range outs {
			if o.Seq <= prev {
				t.Fatalf("shard %s out of order: seq %d after %d", d, o.Seq, prev)
			}
			prev = o.Seq
			bySeq[o.Seq] = o
		}
	}
	for i, d := range docs {
		o, ok := bySeq[i]
		if !ok {
			t.Fatalf("document %d (%s) missing from output", i, d.Site.Name)
		}
		if !d.IsCorrect(o.Separator) {
			t.Errorf("%s: separator %q not in truth %v", d.Site.Name, o.Separator, d.Truth)
		}
	}
}
