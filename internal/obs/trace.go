package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"
)

// TraceID is a W3C trace-context 16-byte trace identifier shared by every
// span of one distributed request, across process boundaries.
type TraceID [16]byte

// String renders the ID as 32 lowercase hex characters.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the all-zero (invalid) identifier.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// ParseTraceID parses 32 lowercase hex characters into a TraceID.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if !decodeLowerHex(id[:], s) || id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// SpanID is a W3C trace-context 8-byte span identifier, unique within a
// trace.
type SpanID [8]byte

// String renders the ID as 16 lowercase hex characters.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the all-zero (invalid) identifier.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// decodeLowerHex decodes s into dst, accepting only lowercase hex of exactly
// the right length — the W3C trace-context grammar forbids uppercase.
func decodeLowerHex(dst []byte, s string) bool {
	if len(s) != 2*len(dst) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	_, err := hex.Decode(dst, []byte(s))
	return err == nil
}

// Span status values, in escalation order: a trace's overall status only
// ever moves toward the more severe value.
const (
	StatusOK       = "ok"
	StatusDegraded = "degraded"
	StatusShed     = "shed"
	StatusError    = "error"
)

// statusRank orders statuses for escalation; unknown strings rank highest so
// they are never silently downgraded.
func statusRank(s string) int {
	switch s {
	case "", StatusOK:
		return 0
	case StatusDegraded:
		return 1
	case StatusShed:
		return 2
	case StatusError:
		return 3
	default:
		return 4
	}
}

// MaxSpans bounds the number of spans one Trace retains; further spans are
// counted but dropped, so a runaway loop cannot exhaust memory through its
// own instrumentation.
const MaxSpans = 1024

// Trace records the spans of one request: tag-tree build, highest-fan-out
// search, candidate extraction, each heuristic's ranking, certainty
// combination, and — in cluster mode — per-peer hops. Each trace carries a
// TraceID so fragments recorded in different processes can be stitched back
// together, and each span a SpanID and parent link so the fragments form a
// tree. A nil *Trace is a valid no-op sink, so the pipeline can be
// instrumented unconditionally and pay nothing when tracing is off.
type Trace struct {
	mu           sync.Mutex
	id           TraceID
	root         SpanID // this fragment's root span
	remoteParent SpanID // parent span in the caller's process, if any
	spanBase     uint64 // random base from which span IDs are derived
	nextSpan     uint64
	service      string
	name         string
	start        time.Time
	end          time.Time
	status       string
	statusMsg    string
	rootAttrs    []string
	spans        []*Span
	dropped      int
}

// Span is one timed stage with optional descriptive attributes
// (candidate count, winning tag, ...).
type Span struct {
	Name     string
	Start    time.Time
	Duration time.Duration
	// Attrs holds alternating key, value strings in the order added.
	Attrs []string
	// ID identifies the span within its trace; Parent is the span (or, for
	// top-level spans, the fragment root) it nests under.
	ID     SpanID
	Parent SpanID
	// Status is "", StatusOK, StatusDegraded, StatusShed or StatusError.
	Status string
	owner  *Trace
	// attrBuf holds the attributes Add records for a stage (up to two
	// pairs), so such a span is one allocation.
	attrBuf [4]string
}

// entropy hands out crypto/rand bytes from 4 KiB buffers, one goroutine
// at a time per buffer, so minting a trace or request ID costs a copy
// rather than a read from the system's generator each time. Each byte is
// handed out once.
var entropy = sync.Pool{New: func() any { return &entropyBuf{n: len(entropyBuf{}.b)} }}

type entropyBuf struct {
	b [4096]byte
	n int // bytes of b already handed out
}

// randomBytes fills dst with bytes from crypto/rand.
func randomBytes(dst []byte) error {
	e := entropy.Get().(*entropyBuf)
	defer entropy.Put(e)
	if len(dst) > len(e.b)-e.n {
		if _, err := rand.Read(e.b[:]); err != nil {
			return err
		}
		e.n = 0
	}
	e.n += copy(dst, e.b[e.n:])
	return nil
}

// NewTrace returns an empty trace with a fresh random TraceID. One draw of
// crypto/rand bytes seeds the trace ID and the span-ID base; individual
// span IDs are derived by counter so the hot path never blocks on entropy.
func NewTrace() *Trace {
	var seed [32]byte
	if err := randomBytes(seed[:]); err != nil {
		// crypto/rand never fails on supported platforms; a fixed fallback
		// keeps tracing total rather than panicking a request.
		seed = [32]byte{1}
	}
	t := &Trace{start: time.Now()}
	copy(t.id[:], seed[:16])
	t.spanBase = binary.BigEndian.Uint64(seed[16:24])
	t.root = t.newSpanID()
	return t
}

// NewTraceFrom returns a trace continuing the given remote span context: it
// shares the caller's TraceID and records the caller's span as the remote
// parent, so the two fragments stitch into one tree. An invalid context
// falls back to a fresh trace.
func NewTraceFrom(sc SpanContext) *Trace {
	t := NewTrace()
	if sc.Valid() {
		t.id = sc.TraceID
		t.remoteParent = sc.SpanID
	}
	return t
}

// newSpanID derives the next span ID from the per-trace random base. The
// base randomizes the high bits, so concurrently-built fragments of the same
// trace do not collide.
func (t *Trace) newSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], t.spanBase+t.nextSpan)
	t.nextSpan++
	if id.IsZero() { // astronomically unlikely, but zero means "no span"
		binary.BigEndian.PutUint64(id[:], t.spanBase+t.nextSpan)
		t.nextSpan++
	}
	return id
}

// ID returns the trace identifier ("" stringifies to 32 zeros on nil).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// SetRoot names the fragment's root span: the service recording it and the
// operation (route, command) it represents.
func (t *Trace) SetRoot(service, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.service, t.name = service, name
	t.mu.Unlock()
}

// RootAttr attaches one key/value attribute to the fragment's root span.
func (t *Trace) RootAttr(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rootAttrs = append(t.rootAttrs, key, value)
	t.mu.Unlock()
}

// SetStatus escalates the trace's overall status. Statuses only move toward
// the more severe value (ok < degraded < shed < error), so a late "ok"
// cannot mask an earlier error; msg is kept from the escalating call.
func (t *Trace) SetStatus(status, msg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if statusRank(status) > statusRank(t.status) {
		t.status, t.statusMsg = status, msg
	}
	t.mu.Unlock()
}

// Finish closes the fragment, fixing its wall-clock duration. Further spans
// may still be added (they are kept) but the root duration no longer grows.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.end.IsZero() {
		t.end = time.Now()
	}
	t.mu.Unlock()
}

// SpanContext returns the context that identifies this fragment's root span
// — what a caller injects into an outgoing traceparent header.
func (t *Trace) SpanContext() SpanContext {
	if t == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: t.id, SpanID: t.root, Flags: 0x01}
}

// ChildContext returns the context identifying s as the parent of whatever
// the callee records — inject it into the outgoing hop so the callee's
// fragment nests under s rather than under the whole request.
func (t *Trace) ChildContext(s *Span) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	sc := SpanContext{TraceID: t.id, Flags: 0x01}
	if s != nil {
		sc.SpanID = s.ID
	} else {
		sc.SpanID = t.root
	}
	return sc
}

// addSpan appends s under the span cap; returns false when dropped.
func (t *Trace) addSpan(s *Span) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= MaxSpans {
		t.dropped++
		return false
	}
	s.ID = t.newSpanID()
	if s.Parent.IsZero() {
		s.Parent = t.root
	}
	if t.spans == nil {
		// Room for one discovery's stage spans without regrowing.
		t.spans = make([]*Span, 0, 16)
	}
	t.spans = append(t.spans, s)
	return true
}

// StartSpan opens a live span; call End on the returned span when the stage
// finishes. Returns nil (whose methods are no-ops) on a nil trace.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{Name: name, Start: time.Now(), owner: t}
	if !t.addSpan(s) {
		return nil
	}
	return s
}

// StartSpanUnder is StartSpan with an explicit parent span, for nesting one
// stage under another (a peer hop under the route decision, say). A nil
// parent nests under the fragment root.
func (t *Trace) StartSpanUnder(parent *Span, name string) *Span {
	s := t.StartSpan(name)
	if s != nil && parent != nil {
		s.Parent = parent.ID
	}
	return s
}

// Add records an already-timed span — for stages whose duration was measured
// elsewhere. attrs are alternating key, value strings; the span keeps a
// copy. The span's start is read off the monotonic clock relative to the
// trace's own start, one clock read rather than the two of a wall-clock
// time.Now.
func (t *Trace) Add(name string, d time.Duration, attrs ...string) {
	if t == nil {
		return
	}
	s := &Span{Name: name, Start: t.start.Add(time.Since(t.start) - d), Duration: d, owner: t}
	switch n := len(attrs); {
	case n > len(s.attrBuf):
		s.Attrs = append([]string(nil), attrs...)
	case n > 0:
		// Capped at the copy's length, so a later Attr append reallocates.
		s.Attrs = s.attrBuf[:n:n]
		copy(s.Attrs, attrs)
	}
	t.addSpan(s)
}

// End closes a live span, fixing its duration. Safe to call from a
// goroutine that outlives the request (a losing hedge attempt, say) while
// the trace is being snapshotted.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.Start)
	if s.owner != nil {
		s.owner.mu.Lock()
		defer s.owner.mu.Unlock()
	}
	s.Duration = d
}

// Attr appends one key/value attribute and returns the span for chaining.
func (s *Span) Attr(key, value string) *Span {
	if s == nil {
		return nil
	}
	if s.owner != nil {
		s.owner.mu.Lock()
		defer s.owner.mu.Unlock()
	}
	s.Attrs = append(s.Attrs, key, value)
	return s
}

// AttrInt is Attr for integer values.
func (s *Span) AttrInt(key string, v int) *Span {
	return s.Attr(key, fmt.Sprintf("%d", v))
}

// SetStatus marks the span's own status (it does not escalate the trace;
// call Trace.SetStatus for that).
func (s *Span) SetStatus(status string) *Span {
	if s == nil {
		return nil
	}
	if s.owner != nil {
		s.owner.mu.Lock()
		defer s.owner.mu.Unlock()
	}
	s.Status = status
	return s
}

// Spans returns a snapshot of the recorded spans in recording order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	for i, s := range t.spans {
		out[i] = *s
		out[i].owner = nil
		if n := len(s.Attrs); n > 0 && n <= len(s.attrBuf) && &s.Attrs[0] == &s.attrBuf[0] {
			// Point the copy at its own copy of the attributes, so a kept
			// snapshot does not hold the live span.
			out[i].Attrs = out[i].attrBuf[:n:n]
		}
	}
	return out
}

// TraceData is an immutable snapshot of one trace fragment, safe to store
// and serialize after the request that produced it has completed.
type TraceData struct {
	TraceID      TraceID       `json:"-"`
	Root         SpanID        `json:"-"`
	RemoteParent SpanID        `json:"-"`
	Service      string        `json:"service"`
	Name         string        `json:"name"`
	Start        time.Time     `json:"start"`
	Duration     time.Duration `json:"duration"`
	Status       string        `json:"status"`
	StatusMsg    string        `json:"status_msg,omitempty"`
	RootAttrs    []string      `json:"root_attrs,omitempty"`
	Spans        []Span        `json:"spans"`
	Dropped      int           `json:"dropped,omitempty"`
}

// Snapshot captures the fragment's current state. Call after Finish for a
// fixed duration; before, the duration reads as elapsed-so-far.
func (t *Trace) Snapshot() TraceData {
	if t == nil {
		return TraceData{}
	}
	spans := t.Spans()
	t.mu.Lock()
	defer t.mu.Unlock()
	d := time.Since(t.start)
	if !t.end.IsZero() {
		d = t.end.Sub(t.start)
	}
	status := t.status
	if status == "" {
		status = StatusOK
	}
	return TraceData{
		TraceID:      t.id,
		Root:         t.root,
		RemoteParent: t.remoteParent,
		Service:      t.service,
		Name:         t.name,
		Start:        t.start,
		Duration:     d,
		Status:       status,
		StatusMsg:    t.statusMsg,
		RootAttrs:    append([]string(nil), t.rootAttrs...),
		Spans:        spans,
		Dropped:      t.dropped,
	}
}

// attrString renders a span's attributes as "k=v k=v".
func attrString(attrs []string) string {
	var b strings.Builder
	for i := 0; i+1 < len(attrs); i += 2 {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", attrs[i], attrs[i+1])
	}
	return b.String()
}

// Table renders the spans as an aligned three-column table (stage, duration,
// attributes) with a total row — the "where does the time go" view for the
// §5.3 worked example.
func (t *Trace) Table() string {
	spans := t.Spans()
	if len(spans) == 0 {
		return "(no spans recorded)\n"
	}
	rows := make([][3]string, 0, len(spans)+1)
	var total time.Duration
	for _, s := range spans {
		total += s.Duration
		rows = append(rows, [3]string{s.Name, s.Duration.String(), attrString(s.Attrs)})
	}
	rows = append(rows, [3]string{"total", total.String(), ""})

	w0, w1 := len("stage"), len("duration")
	for _, r := range rows {
		w0, w1 = max(w0, len(r[0])), max(w1, len(r[1]))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %*s  %s\n", w0, "stage", w1, "duration", "attributes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %*s  %s\n", w0, r[0], w1, r[1], r[2])
	}
	return b.String()
}
