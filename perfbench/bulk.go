package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/template"
)

// bulkSystem is the cmd/bulk engine as deployed with a wrapper store:
// metrics on, NDJSON in, NDJSON out to io.Discard.
type bulkSystem struct {
	reg    *obs.Registry
	store  *template.Store
	engine *pipeline.Engine
}

// openBulk opens the wrapper store on journal (replaying it) and builds the
// engine, with cmd/bulk's default retry policy and spot-check rate.
func openBulk(journal string, workers int, withStore bool) (*bulkSystem, error) {
	s := &bulkSystem{reg: obs.NewRegistry()}
	if withStore {
		store, err := template.Open(template.Config{
			Path:           journal,
			SpotCheckEvery: 64,
			Metrics:        s.reg,
		})
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	s.engine = pipeline.New(pipeline.Config{
		Workers: workers,
		Retry: pipeline.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   25 * time.Millisecond,
			MaxDelay:    time.Second,
		},
		Metrics:   s.reg,
		Templates: s.store,
	})
	return s, nil
}

// close flushes and closes the store's journal and drops the system, so a
// pending deferred close keeps nothing alive. It is idempotent: error paths
// may defer it while the success path still checks its error.
func (s *bulkSystem) close() error {
	err := s.store.Close()
	s.reg, s.store, s.engine = nil, nil, nil
	return err
}

// taskLine is one NDJSON input line, as cmd/bulk reads it.
type taskLine struct {
	ID       string `json:"id"`
	HTML     string `json:"html"`
	Ontology string `json:"ontology,omitempty"`
	Shard    string `json:"shard"`
}

// ndjson encodes the documents as one bulk input stream.
func ndjson(w *workload, docs []int32) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, i := range docs {
		d := w.docs[i]
		_ = enc.Encode(taskLine{ID: "doc-" + strconv.Itoa(int(i)), HTML: d.html, Ontology: d.ontology, Shard: string(d.domain)})
	}
	return buf.Bytes()
}

// timedSource wraps the NDJSON source and stamps when each task was read.
type timedSource struct {
	src  pipeline.Source
	read []time.Time
}

func (s *timedSource) Next() (*pipeline.Task, error) {
	t, err := s.src.Next()
	if err == nil && t.Seq < len(s.read) {
		s.read[t.Seq] = time.Now()
	}
	return t, err
}

// checkSink hands every outcome to a WriterSink on io.Discard (the JSON
// encode a bulk run pays) and records, per outcome, its latency from read
// to write and whether it matches the reference answer.
type checkSink struct {
	inner    *pipeline.WriterSink
	out      countingWriter
	w        *workload
	docs     []int32
	src      *timedSource
	start    time.Time
	window   loadResult // latencies and completions, by the single emitter goroutine
	written  int
	failed   int
	answered *docSet
}

// newCheckSink returns a sink recording correct answers in answered (which
// may be nil).
func newCheckSink(w *workload, answered *docSet) *checkSink {
	s := &checkSink{w: w, answered: answered}
	s.inner = pipeline.NewWriterSink(&s.out, nil)
	return s
}

func (s *checkSink) Write(o *pipeline.Outcome) (string, int64, error) {
	if !s.start.IsZero() && o.Seq < len(s.src.read) {
		now := time.Now()
		s.window.lat = append(s.window.lat, float64(now.Sub(s.src.read[o.Seq]))/1e6)
		s.window.done = append(s.window.done, now.Sub(s.start).Seconds())
	}
	s.written++
	i := s.docs[o.Seq]
	if o.Error != "" || !s.w.docs[i].ref.equal(o.Separator, o.TopTags) {
		s.failed++
	} else {
		s.answered.add(s.w, i)
	}
	return s.inner.Write(o)
}

func (s *checkSink) Close() error { return nil }

type countingWriter struct{ n atomic.Int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return io.Discard.Write(p)
}

// runPass feeds one encoded pass through the engine into sink.
func (s *bulkSystem) runPass(input []byte, docs []int32, sink *checkSink) (pipeline.Stats, error) {
	src := &timedSource{
		src:  pipeline.NewNDJSONSource(bytes.NewReader(input), 0),
		read: make([]time.Time, len(docs)),
	}
	sink.docs, sink.src = docs, src
	return s.engine.Run(context.Background(), src, sink, nil)
}

// bulkInputs pre-encodes every pass of the workload.
func bulkInputs(w *workload) [][]byte {
	out := make([][]byte, len(w.passes))
	for k, pass := range w.passes {
		out[k] = ndjson(w, pass)
	}
	return out
}

// journalPath returns a fresh journal path under dir.
func journalPath(dir, name string) string { return filepath.Join(dir, name+".ndjson") }

// addSink counts what a bulk sink received: read is what the engine took
// from its source, and an outcome never written is a failure.
func (v *verdict) addSink(s *checkSink, read int) {
	v.attempted += read
	v.failed += s.failed + read - s.written
}

// docSet collects the distinct documents a bulk run answered correctly.
type docSet struct {
	seen    []bool
	n       int
	truthOK int // documents whose separator is in Document.Truth
}

func newDocSet(w *workload) *docSet { return &docSet{seen: make([]bool, len(w.docs))} }

func (s *docSet) add(w *workload, i int32) {
	if s == nil || s.seen[i] {
		return
	}
	s.seen[i] = true
	s.n++
	if w.docs[i].truthOK() {
		s.truthOK++
	}
}

// bulkSetupRepeats is how many warm restarts a bulk run times.
const bulkSetupRepeats = 31

// bulkLoop feeds whole loops of the workload — every pass, in order, the
// store emptied first so each loop learns again — until deadline has passed
// at the end of a pass. It returns the documents read.
func (s *bulkSystem) bulkLoop(w *workload, inputs [][]byte, sink *checkSink, deadline time.Time) (int, error) {
	read := 0
	for {
		s.store.Reset()
		for k, in := range inputs {
			st, err := s.runPass(in, w.passes[k], sink)
			read += st.Read
			if err != nil {
				return read, err
			}
			if time.Now().After(deadline) {
				return read, nil
			}
		}
	}
}

func endToEndBulk(w *workload, dur time.Duration, tmp string, out io.Writer) (metrics, verdict, []int32, error) {
	inputs := bulkInputs(w)
	firstDoc := []int32{w.passes[1][0]}
	firstInput := ndjson(w, firstDoc)
	base := liveHeap()
	var v verdict
	answered := newDocSet(w)

	// Learn the first pass once, so every timed set-up replays a journal
	// that holds one wrapper per page: a warm restart of cmd/bulk.
	journal := journalPath(tmp, "templates")
	sys, err := openBulk(journal, clients, true)
	if err != nil {
		return nil, v, nil, err
	}
	defer sys.close()
	prep := newCheckSink(w, answered)
	st, err := sys.runPass(inputs[0], w.passes[0], prep)
	v.addSink(prep, st.Read)
	if err != nil {
		return nil, v, nil, err
	}
	if err := sys.close(); err != nil {
		return nil, v, nil, err
	}

	var setups []float64
	for k := 0; k < bulkSetupRepeats; k++ {
		sink := newCheckSink(w, answered)
		t0 := time.Now()
		s, err := openBulk(journal, clients, true)
		if err != nil {
			return nil, v, nil, err
		}
		defer s.close()
		st, err := s.runPass(firstInput, firstDoc, sink)
		setups = append(setups, time.Since(t0).Seconds())
		v.addSink(sink, st.Read)
		if err != nil {
			return nil, v, nil, err
		}
		if k < bulkSetupRepeats-1 {
			if err := s.close(); err != nil {
				return nil, v, nil, err
			}
		} else {
			sys = s
		}
	}

	warm := newCheckSink(w, answered)
	read, err := sys.bulkLoop(w, inputs, warm, time.Now().Add(warmupFor(dur)))
	v.addSink(warm, read)
	if err != nil {
		return nil, v, nil, err
	}
	sink := newCheckSink(w, answered)
	start := time.Now()
	sink.start = start
	read, err = sys.bulkLoop(w, inputs, sink, start.Add(dur))
	sink.window.elapsed = time.Since(start)
	v.addSink(sink, read)
	if err != nil {
		return nil, v, nil, err
	}

	m := metrics{}
	setSetup(m, setups, out)
	setWindow(m, sink.window.summarize(), out)
	v.answered, v.truthOK = answered.n, answered.truthOK
	m.set("correct_frac", float64(v.truthOK)/float64(v.answered), "ratio")
	sink.window = loadResult{}
	m.set("heap_live_mb", (liveHeap()-base)/1e6, "MB")
	runtime.KeepAlive(sys)
	runtime.KeepAlive(inputs)
	runtime.KeepAlive(firstInput)
	if err := sys.close(); err != nil {
		return nil, v, nil, err
	}
	return m, v, w.prefix(read), nil
}
