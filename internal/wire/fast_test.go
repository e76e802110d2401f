package wire

import (
	"encoding/json"
	"strings"
	"testing"
	"unsafe"
)

// TestCommonBodiesTakeOnePass: the bodies clients actually send — written
// by encoding/json, with its <-style escapes, and by hand — never
// reach the encoding/json fallback, and the decoded strings are copies.
func TestCommonBodiesTakeOnePass(t *testing.T) {
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	bodies := []string{
		marshal(Request{HTML: "<div><hr><b>A</b> x & y<hr></div>", Ontology: "obituary"}),
		marshal(Request{XML: "<r> é\"\\\n</r>", SeparatorList: []string{"hr", "br"}}),
		`{}`,
		` {"html" : "<p>x</p>" , "separator_list" : [ ] } trailing`,
	}
	for _, body := range bodies {
		var req Request
		if !decodeFast([]byte(body), &req, nil) {
			t.Errorf("%q fell back to encoding/json", body)
		}
		for _, s := range append([]string{req.HTML, req.XML, req.Ontology}, req.SeparatorList...) {
			if aliases(s, body) {
				t.Errorf("%q: decoded %q aliases the body", body, s)
			}
		}
	}
	lines := []string{
		marshal(TaskLine{ID: "a", Request: Request{HTML: "<p>x"}, Shard: "s"}),
		`{"shard":"s","html":"x","id":"d"}` + " \n",
	}
	for _, line := range lines {
		var tl TaskLine
		if !decodeFast([]byte(line), &tl.Request, &tl) {
			t.Errorf("task line %q fell back to encoding/json", line)
		}
	}
}

// aliases reports whether s's bytes lie inside body's.
func aliases(s, body string) bool {
	if len(s) == 0 || len(body) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	b := uintptr(unsafe.Pointer(unsafe.StringData(body)))
	return p >= b && p < b+uintptr(len(body))
}

// TestDecodedDocumentIsOneAllocation: an escaped document decodes into a
// single allocation of exactly its size.
func TestDecodedDocumentIsOneAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	body := []byte(`{"html":"` + strings.Repeat(`\u003cb\u003ex\u003c/b\u003e café \"q\" `, 200) + `"}`)
	allocs := testing.AllocsPerRun(100, func() {
		var req Request
		if !decodeFast(body, &req, nil) {
			t.Fatal("fell back")
		}
	})
	if allocs != 1 {
		t.Fatalf("decode allocated %v times, want 1", allocs)
	}
}
