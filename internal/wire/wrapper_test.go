package wire

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

func TestWrapperString(t *testing.T) {
	w := Wrapper{Separator: "hr", Confidence: 0.999, Agreement: 1, SampleSize: 5}
	if got, want := w.String(), "wrapper{sep=<hr> conf=99.90% agree=100% n=5}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestWrapperCompatibilityGolden: a wrapper file written by an earlier
// release's `wrapper learn` (three Salt Lake Tribune obituary pages, the
// obituary ontology) still loads, and saving it again reproduces its bytes.
func TestWrapperCompatibilityGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/saltlake-obituary.wrapper")
	if err != nil {
		t.Fatal(err)
	}
	w, err := LoadWrapper(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	want := Wrapper{Version: 1, Separator: "hr", Ontology: "obituary",
		Confidence: 0.9990327442, Agreement: 1, SampleSize: 3}
	if w != want {
		t.Errorf("loaded %+v, want %+v", w, want)
	}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("re-saved bytes differ:\n%s\nwant:\n%s", buf.Bytes(), golden)
	}
}

func TestLoadWrapperErrors(t *testing.T) {
	if _, err := LoadWrapper(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := LoadWrapper(strings.NewReader(`{"version":99,"separator":"hr"}`)); err == nil {
		t.Error("unknown version should fail")
	}
	if _, err := LoadWrapper(strings.NewReader(`{"version":1}`)); err == nil {
		t.Error("missing separator should fail")
	}
}

// TestLoadWrapperCorruptInputs pins the typed-error contract: a truncated
// or torn save — and any other undecodable input — fails with ErrCorrupt
// and never yields a partial wrapper, mirroring the checkpoint journal's
// torn-write handling.
func TestLoadWrapperCorruptInputs(t *testing.T) {
	w := Wrapper{Version: WrapperVersion, Separator: "hr", Confidence: 0.99, Agreement: 1, SampleSize: 3}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := strings.TrimRight(buf.String(), "\n")

	// Every truncation of a valid save must fail typed — no strict prefix of
	// the JSON document is a usable wrapper. (Only the encoder's trailing
	// newline is optional, trimmed above.)
	for cut := 0; cut < len(full); cut++ {
		loaded, err := LoadWrapper(strings.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d bytes loaded silently: %+v", cut, loaded)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d bytes: error %v does not wrap ErrCorrupt", cut, err)
		}
		if loaded != (Wrapper{}) {
			t.Fatalf("truncation at %d bytes returned a partial wrapper alongside the error", cut)
		}
	}

	corrupt := []string{
		"",                         // empty file
		"not json",                 // garbage
		`{"version":1,`,            // torn mid-object
		`{"version":1}`,            // decodes but missing separator
		"\x00\x01\x02",             // binary noise
		`[1,2,3]`,                  // wrong JSON shape
		full[:len(full)/2] + "}}}", // torn then overwritten tail
	}
	for i, in := range corrupt {
		if _, err := LoadWrapper(strings.NewReader(in)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("corrupt input %d: error %v does not wrap ErrCorrupt", i, err)
		}
	}

	// The version check is a compatibility refusal, not corruption.
	if _, err := LoadWrapper(strings.NewReader(`{"version":99,"separator":"hr"}`)); errors.Is(err, ErrCorrupt) {
		t.Error("unsupported version should not be reported as corruption")
	}
}
