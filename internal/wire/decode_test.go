package wire_test

import (
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/paperdoc"
	"repro/internal/wire"
)

// errTooBig stands in for http.MaxBytesError: the error a size-limited body
// reader returns once the body runs past its limit.
var errTooBig = errors.New("body too large")

// limitedBody yields body in chunk-byte reads, at most limit bytes of it,
// then errTooBig if body is longer than limit and io.EOF otherwise — the
// read pattern of a request body under http.MaxBytesReader.
type limitedBody struct {
	body  []byte
	limit int
	chunk int
}

func (b *limitedBody) Read(p []byte) (int, error) {
	if len(b.body) == 0 || b.limit == 0 {
		if len(b.body) > 0 {
			return 0, errTooBig
		}
		return 0, io.EOF
	}
	n := min(len(p), b.chunk, len(b.body), b.limit)
	copy(p, b.body[:n])
	b.body = b.body[n:]
	b.limit -= n
	return n, nil
}

// decodeSeeds are the FuzzDiscoverRequest seeds plus the bodies on which
// the one-pass path must hand over to encoding/json.
var decodeSeeds = []string{
	``,
	`{}`,
	`{"html":"<div><hr><b>A</b> x<hr><b>B</b> y<hr></div>"}`,
	`{"html":"<div><hr>x<hr></div>","ontology":"obituary"}`,
	`{"xml":"<r><i>a</i><i>b</i></r>"}`,
	`{"html":"x","xml":"y"}`,
	`{"html":"<div>x</div>","ontology":"ontology X\nentity X\nobject A : one-to-one {\nkeyword ` + "`k`" + `\n}"}`,
	`{"html":"<div>x</div>","separator_list":["hr","br"]}`,
	`{"html":"<div>x</div>","unknown_field":1}`,
	`{"html":`,
	`[1,2,3]`,
	`"just a string"`,
	`{"html":"` + strings.Repeat("<div>", 50) + `"}`,
	// Outside the common shape.
	`{"html":"<p>x"} trailing-garbage`,
	`{"html":"<p>x"}{"html":"<p>y"}`,
	`{"HTML":"<p>x"}`,
	`{"Html":"<p>x","XML":"y"}`,
	`{"html":"<p>a","html":"<p>b"}`,
	`{"html":null}`,
	`{"html":1}`,
	`{"html":true,"xml":"x"}`,
	`{"separator_list":null,"html":"x"}`,
	`{"separator_list":[],"html":"x"}`,
	`{"separator_list":["hr",null],"html":"x"}`,
	`{"separator_list":"hr","html":"x"}`,
	`{"html":"x","id":"a","shard":"s"}`,
	`{"id":"a","html":"x","shard":"s","extra":[1,{"k":null}]}`,
	`{"id":1,"html":"x"}`,
	`{"html":"x"}   ` + "\n\t\r",
	` ` + "\n" + ` {"html" : "x" , "ontology" : "obituary" } `,
	`{"html":"x",}`,
	`{,"html":"x"}`,
	`{"html":"x"`,
	`{"html":"x" "xml":"y"}`,
	`{"html":"x"}`,
	`{"html":"😀"}`,
	`{"html":"\ud83d\ude00 pair"}`,
	`{"html":"\ud83d"}`,
	`{"html":"\ude00x"}`,
	`{"html":"\ud83dA"}`,
	`{"html":"\u12"}`,
	`{"html":"\u12g4"}`,
	`{"html":"\x"}`,
	`{"html":"\"}`,
	"{\"html\":\"\xff\xfe\"}",
	"{\"html\":\"\xe2\x82\"}",
	"{\"html\":\"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80\"}",
	"{\"html\":\"tab\tinside\"}",
	"{\"html\":\"nul\x00inside\"}",
	`{"html":"\"\\\/\b\f\n\r\t\u0000\u001f<>&é€ ￿�"}`,
	"\xef\xbb\xbf{\"html\":\"x\"}",
	`null`,
	`{"html":"x"} ` + "\x00",
}

// realBodies are /v1/discover bodies as clients send them: the paper's
// Figure 2 with its ontology and corpus pages of every domain.
func realBodies(t testing.TB) []string {
	var out []string
	add := func(r wire.Request) {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	add(wire.Request{HTML: paperdoc.Figure2, Ontology: "obituary"})
	for _, d := range []corpus.Domain{corpus.Obituaries, corpus.CarAds, corpus.JobAds, corpus.Courses} {
		add(wire.Request{HTML: corpus.TestSites(d)[0].Generate(0).HTML, Ontology: string(d)})
	}
	add(wire.Request{XML: "<r><i>a</i><i>b</i></r>", SeparatorList: []string{"i", "é"}})
	return out
}

// FuzzDecodeRequestVsEncodingJSON pins the one-pass decoder to encoding/json
// on both envelopes. For a request body read under a size limit, ReadRequest
// must give what json.Decoder with DisallowUnknownFields gives reading the
// same limited stream: the same value, the same accept/reject, the same
// error text, and the over-limit error exactly when the decoder hit it (the
// 413-vs-400 class). For a task line, DecodeTaskLine must give what
// json.Unmarshal gives whenever it takes the line.
func FuzzDecodeRequestVsEncodingJSON(f *testing.F) {
	for _, s := range append(decodeSeeds, realBodies(f)...) {
		f.Add([]byte(s), uint16(0), uint8(0))
		f.Add([]byte(s), uint16(len(s)/2+1), uint8(7))
	}
	f.Fuzz(func(t *testing.T, body []byte, limit uint16, chunk uint8) {
		lim := len(body)
		if limit != 0 {
			lim = min(lim, int(limit))
		}
		ch := int(chunk) + 1

		var want wire.Request
		dec := json.NewDecoder(&limitedBody{body: body, limit: lim, chunk: ch})
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)
		got, gotErr := wire.ReadRequest(&limitedBody{body: body, limit: lim, chunk: 64})
		if msg := compare(got, want, gotErr, wantErr); msg != "" {
			t.Fatalf("request body %q (limit %d): %s", body, lim, msg)
		}
		if errors.Is(gotErr, errTooBig) != errors.Is(wantErr, errTooBig) {
			t.Fatalf("request body %q (limit %d): over-limit class differs: got %v, want %v", body, lim, gotErr, wantErr)
		}
		if lim == len(body) {
			got, gotErr = wire.DecodeRequest(body)
			if msg := compare(got, want, gotErr, wantErr); msg != "" {
				t.Fatalf("DecodeRequest(%q): %s", body, msg)
			}
		}

		if msg := compareTaskLine(body); msg != "" {
			t.Fatalf("task line %q: %s", body, msg)
		}
	})
}

// compareTaskLine checks DecodeTaskLine against json.Unmarshal: a line it
// takes must be one json.Unmarshal accepts, with the same value. Lines it
// declines are decoded by the caller's json.Unmarshal fallback.
func compareTaskLine(line []byte) string {
	got, ok := wire.DecodeTaskLine(line)
	if !ok {
		return ""
	}
	var want wire.TaskLine
	return compare(got, want, nil, json.Unmarshal(line, &want))
}

// compare reports how a decoded value and error differ from encoding/json's,
// or "" when they agree.
func compare[T any](got, want T, gotErr, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return "accept/reject differs: got error " + errString(gotErr) + ", want " + errString(wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		return "error text differs: got " + gotErr.Error() + ", want " + wantErr.Error()
	case !reflect.DeepEqual(got, want):
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		return "value differs: got " + string(g) + ", want " + string(w)
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestDecodeMatchesEncodingJSON runs the fuzz comparison over every seed
// at several limits and read sizes, so a plain `go test` covers the
// over-limit replay as well as the complete-body path.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, s := range append(decodeSeeds, realBodies(t)...) {
		for _, lim := range []int{0, 1, len(s) / 3, len(s) - 1, len(s), len(s) + 1} {
			for _, chunk := range []int{1, 5, 512} {
				var want wire.Request
				dec := json.NewDecoder(&limitedBody{body: []byte(s), limit: lim, chunk: chunk})
				dec.DisallowUnknownFields()
				wantErr := dec.Decode(&want)
				got, gotErr := wire.ReadRequest(&limitedBody{body: []byte(s), limit: lim, chunk: 4096})
				if msg := compare(got, want, gotErr, wantErr); msg != "" {
					t.Errorf("body %.60q limit %d chunk %d: %s", s, lim, chunk, msg)
				}
				if errors.Is(gotErr, errTooBig) != errors.Is(wantErr, errTooBig) {
					t.Errorf("body %.60q limit %d chunk %d: over-limit class differs: %v vs %v", s, lim, chunk, gotErr, wantErr)
				}
			}
		}
		if msg := compareTaskLine([]byte(s)); msg != "" {
			t.Errorf("task line %.60q: %s", s, msg)
		}
	}
}

// TestDecodeEdgeBodies pins the outcomes the handler has always given on
// bodies outside the common shape, independent of the oracle.
func TestDecodeEdgeBodies(t *testing.T) {
	cases := []struct {
		body    string
		want    wire.Request
		wantErr string
	}{
		{body: `{"html":"<p>x"} trailing-garbage`, want: wire.Request{HTML: "<p>x"}},
		{body: `{"HTML":"<p>x"}`, want: wire.Request{HTML: "<p>x"}},
		{body: `{"html":"<p>a","html":"<p>b"}`, want: wire.Request{HTML: "<p>b"}},
		{body: `{"separator_list":[],"html":"x"}`, want: wire.Request{HTML: "x", SeparatorList: []string{}}},
		{body: `{"html":"<p>é😀"}`, want: wire.Request{HTML: "<p>é😀"}},
		{body: `{"html":"x","shard":"s"}`, wantErr: `json: unknown field "shard"`},
		{body: ``, wantErr: `EOF`},
	}
	for _, c := range cases {
		got, err := wire.DecodeRequest([]byte(c.body))
		if errString(err) != c.wantErr && !(err == nil && c.wantErr == "") {
			t.Errorf("%q: error %v, want %q", c.body, err, c.wantErr)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q: got %+v, want %+v", c.body, got, c.want)
		}
	}
}
