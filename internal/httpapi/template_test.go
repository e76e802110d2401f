package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/paperdoc"
	"repro/internal/tagtree"
	"repro/internal/template"
)

// minLimit returns the smallest bound under which doc still parses, as set
// by with (1 when doc parses under any bound).
func minLimit(t *testing.T, doc string, with func(int) tagtree.Limits) int {
	t.Helper()
	for n := 1; n <= len(doc); n++ {
		if _, err := tagtree.ParseContext(context.Background(), doc, with(n)); err == nil {
			return n
		}
	}
	t.Fatalf("document never parses within its own length")
	return 0
}

// postBytes posts body and returns the status and the response bytes.
func postBytes(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/discover", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestTemplateHitHonorsLimits: a warm wrapper store must not serve a
// document Config.Limits rejects. Each variant shares the learned page's
// fingerprint (extra text, or extra elements outside the record region) but
// breaks one limit the learned page met, and must get the cold path's exact
// status and body.
func TestTemplateHitHonorsLimits(t *testing.T) {
	base := paperdoc.Figure2
	nodes := minLimit(t, base, func(n int) tagtree.Limits { return tagtree.Limits{MaxNodes: n} })
	depth := minLimit(t, base, func(n int) tagtree.Limits { return tagtree.Limits{MaxDepth: n} })
	deep := strings.Repeat("<span>", depth+1) + strings.Repeat("</span>", depth+1)
	cases := []struct {
		name    string
		limits  tagtree.Limits
		variant string
		status  int
	}{
		{"MaxBytes", tagtree.Limits{MaxBytes: len(base)}, base + strings.Repeat(" more text", 8), http.StatusRequestEntityTooLarge},
		{"MaxNodes", tagtree.Limits{MaxNodes: nodes}, "<span></span><span></span>" + base, http.StatusUnprocessableEntity},
		{"MaxDepth", tagtree.Limits{MaxDepth: depth}, deep + base, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if template.FingerprintDoc(tc.variant) != template.FingerprintDoc(base) {
				t.Fatal("variant does not share the learned page's fingerprint")
			}
			store, err := template.Open(template.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			warm := newChaosServer(t, Config{Limits: tc.limits, Templates: store})
			cold := newChaosServer(t, Config{Limits: tc.limits})

			learn, _ := json.Marshal(map[string]any{"html": base, "ontology": "obituary"})
			for i := 0; i < 2; i++ {
				if code, body := postBytes(t, warm.URL, learn); code != http.StatusOK {
					t.Fatalf("learned page status %d: %s", code, body)
				}
			}
			if store.Len() != 1 {
				t.Fatalf("store holds %d entries after learning, want 1", store.Len())
			}

			req, _ := json.Marshal(map[string]any{"html": tc.variant, "ontology": "obituary"})
			wantCode, want := postBytes(t, cold.URL, req)
			gotCode, got := postBytes(t, warm.URL, req)
			if wantCode != tc.status {
				t.Fatalf("cold status %d, want %d", wantCode, tc.status)
			}
			if gotCode != wantCode || !bytes.Equal(got, want) {
				t.Errorf("warm answer %d %s, cold answer %d %s", gotCode, got, wantCode, want)
			}
		})
	}
}

// TestTemplateStoreLoadsNullRankings: wrapper-store journals written before
// every surface shared one answer type hold single-candidate entries with
// "rankings": null. Such a line must load, serve the bytes a store-free
// server answers, pass a spot-check, and count as already known — neither
// re-journaled nor re-published when the spot-check relearns it.
func TestTemplateStoreLoadsNullRankings(t *testing.T) {
	const doc = "<html><body><div>one<hr>two<hr>three<hr>four</div></body></html>"
	const line = `{"v":1,"put":{"key":"c0a249fccca45407041f33ab55acbda509cb9311139183ca127c79c248557c3b",` +
		`"separator":"hr","top_tags":["hr"],"scores":[{"tag":"hr","cf":1}],"rankings":null,` +
		`"candidates":[{"tag":"hr","count":3}],"subtree":"div","certainty":1}}` + "\n"
	key := template.MakeKey(template.FingerprintDoc(doc), template.Salt("html", "", nil))
	if !strings.Contains(line, key.String()) {
		t.Fatalf("fixture key is not the document's store key %s", key)
	}
	path := filepath.Join(t.TempDir(), "store.ndjson")
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	store, err := template.Open(template.Config{Path: path, SpotCheckEvery: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Len() != 1 {
		t.Fatalf("store loaded %d entries, want 1", store.Len())
	}
	published := 0
	store.OnStore = func(*template.Entry) { published++ }

	warm := newChaosServer(t, Config{Templates: store})
	cold := newChaosServer(t, Config{})
	req, _ := json.Marshal(map[string]any{"html": doc})
	_, want := postBytes(t, cold.URL, req)
	// The first hit is served from the store; the second is spot-checked.
	for i := 0; i < 2; i++ {
		if code, got := postBytes(t, warm.URL, req); code != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("request %d: status %d, bytes\n%s\nwant\n%s", i, code, got, want)
		}
	}
	spot := func(outcome string) float64 {
		return reg.Counter("boundary_template_spot_checks_total", "", "outcome", outcome).Value()
	}
	if spot("ok") != 1 || spot("divergent") != 0 {
		t.Errorf("spot-checks ok=%v divergent=%v, want 1 and 0", spot("ok"), spot("divergent"))
	}
	if st := store.Stats(); st.Hits != 2 || st.Stores != 0 {
		t.Errorf("store saw %v hits and %v stores, want 2 and 0", st.Hits, st.Stores)
	}
	if published != 0 {
		t.Errorf("relearned entry was published %d times", published)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != line {
		t.Errorf("journal rewritten after the spot-check (err %v):\n%s", err, b)
	}
}
