package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	s := tr.StartSpan("parse").Attr("mode", "html").AttrInt("bytes", 42)
	s.End()
	tr.Add("combine", 3*time.Millisecond, "separator", "hr")

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "parse" || spans[0].Duration < 0 {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if got := attrString(spans[0].Attrs); got != "mode=html bytes=42" {
		t.Errorf("attrs = %q", got)
	}
	if spans[1].Duration != 3*time.Millisecond {
		t.Errorf("Add duration = %v", spans[1].Duration)
	}
}

func TestTraceTable(t *testing.T) {
	tr := NewTrace()
	tr.Add("parse", 2*time.Millisecond, "bytes", "10")
	tr.Add("combine", time.Millisecond, "separator", "hr")
	got := tr.Table()
	for _, want := range []string{"stage", "duration", "attributes",
		"parse", "2ms", "bytes=10", "combine", "separator=hr", "total", "3ms"} {
		if !strings.Contains(got, want) {
			t.Errorf("table missing %q:\n%s", want, got)
		}
	}
}

func TestNilTrace(t *testing.T) {
	var tr *Trace
	tr.StartSpan("x").Attr("a", "b").End() // all no-ops
	tr.Add("y", time.Second)
	if tr.Spans() != nil {
		t.Error("nil trace returned spans")
	}
	if got := tr.Table(); !strings.Contains(got, "no spans") {
		t.Errorf("nil table = %q", got)
	}
}

func TestEmptyTraceTable(t *testing.T) {
	if got := NewTrace().Table(); !strings.Contains(got, "no spans") {
		t.Errorf("empty table = %q", got)
	}
}

// TestAddKeepsOwnAttrs: a span keeps its own copy of the attributes Add
// was given, and so does a snapshot of it.
func TestAddKeepsOwnAttrs(t *testing.T) {
	tr := NewTrace()
	attrs := []string{"k", "v"}
	tr.Add("a", time.Millisecond, attrs...)
	attrs[1] = "changed"
	tr.Add("b", time.Millisecond, "k1", "v1", "k2", "v2", "k3", "v3")
	snap := tr.Snapshot()
	if got := strings.Join(snap.Spans[0].Attrs, " "); got != "k v" {
		t.Errorf("span a attrs = %q, want %q", got, "k v")
	}
	if got := strings.Join(snap.Spans[1].Attrs, " "); got != "k1 v1 k2 v2 k3 v3" {
		t.Errorf("span b attrs = %q", got)
	}
	tr.Add("c", time.Millisecond)
	if got := tr.Spans()[2].Attrs; got != nil {
		t.Errorf("span without attributes has Attrs %#v, want nil", got)
	}
}
