package template

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/tagtree"
	"repro/internal/wire"
)

// testEntry builds a valid entry keyed by an arbitrary document shape.
func testEntry(doc string, certainty float64) *Entry {
	key := MakeKey(FingerprintDoc(doc), Salt("html", "", nil))
	return &Entry{
		Key: key.String(),
		Answer: wire.Answer{
			Separator: "hr",
			TopTags:   []string{"hr"},
			Scores:    []wire.Score{{Tag: "hr", CF: certainty}, {Tag: "p", CF: 0.2}},
			Rankings: map[string][]wire.Rank{
				"OM": {{Tag: "hr", Rank: 1}, {Tag: "p", Rank: 2}},
			},
			Candidates: []wire.Candidate{{Tag: "hr", Count: 3}, {Tag: "p", Count: 2}},
			Subtree:    "body",
		},
		Certainty: certainty,
	}
}

func mustKey(t *testing.T, e *Entry) Key {
	t.Helper()
	k, err := ParseKey(e.Key)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestStorePutLookup(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	e := testEntry("<html><body><hr><hr></body></html>", 0.99)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Lookup(mustKey(t, e))
	if !ok {
		t.Fatal("lookup miss after put")
	}
	if got.Separator != "hr" || got.Subtree != "body" || len(got.Scores) != 2 {
		t.Fatalf("entry mangled: %+v", got)
	}
	// The returned entry is a copy: mutating it must not poison the cache.
	got.Separator = "poisoned"
	got.Scores[0].Tag = "poisoned"
	again, _ := s.Lookup(mustKey(t, e))
	if again.Separator != "hr" || again.Scores[0].Tag != "hr" {
		t.Fatal("lookup returned shared mutable state")
	}
	if _, ok := s.Lookup(MakeKey(FingerprintDoc("<p>other</p>"), "s")); ok {
		t.Fatal("lookup hit for unknown key")
	}
}

// TestStoreLookupDocSharesEntry: LookupDoc hands back the store's own entry
// (no copy per hit), while Lookup keeps returning a private copy.
func TestStoreLookupDocSharesEntry(t *testing.T) {
	s, _ := Open(Config{})
	defer s.Close()
	doc := "<html><body><hr><hr></body></html>"
	e := testEntry(doc, 0.99)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	salt := Salt("html", "", nil)
	a, _, okA := s.LookupDoc(doc, salt, tagtree.Limits{})
	b, _, okB := s.LookupDoc(doc, salt, tagtree.Limits{})
	if !okA || !okB {
		t.Fatal("LookupDoc missed a stored entry")
	}
	if a != b {
		t.Error("LookupDoc copied the entry; want the shared stored entry")
	}
	if c, _ := s.Lookup(mustKey(t, e)); c == a || !c.Equal(a) {
		t.Error("Lookup should return an equal private copy of the stored entry")
	}
}

func TestStoreRejectsInvalidEntries(t *testing.T) {
	s, _ := Open(Config{})
	defer s.Close()
	bad := []*Entry{
		nil,
		{Key: "nothex", Answer: wire.Answer{Separator: "hr", Subtree: "body"}},
		{Key: testEntry("<p>a</p>", 1).Key, Answer: wire.Answer{Separator: "", Subtree: "body"}},
		{Key: testEntry("<p>a</p>", 1).Key, Answer: wire.Answer{Separator: "hr", Subtree: ""}},
		func() *Entry { e := testEntry("<p>a</p>", 1); e.Certainty = 1.5; return e }(),
	}
	for i, e := range bad {
		if err := s.Put(e); err == nil {
			t.Errorf("entry %d: Put accepted invalid entry", i)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("store grew to %d on invalid puts", s.Len())
	}
}

func TestStoreLowCertaintyEvictsOnLookup(t *testing.T) {
	s, _ := Open(Config{MinCertainty: 0.9})
	defer s.Close()
	e := testEntry("<html><body><hr><hr></body></html>", 0.5)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup(mustKey(t, e)); ok {
		t.Fatal("low-certainty entry served")
	}
	if s.Len() != 0 {
		t.Fatal("low-certainty entry not evicted")
	}
}

func TestStoreReportDrift(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := Open(Config{Metrics: reg})
	defer s.Close()
	e := testEntry("<html><body><hr><hr></body></html>", 0.99)
	s.Put(e)
	s.ReportDrift(mustKey(t, e), "divergent")
	if _, ok := s.Lookup(mustKey(t, e)); ok {
		t.Fatal("drifted entry still served")
	}
	if v := reg.Counter("boundary_template_drift_total", "", "reason", "divergent").Value(); v != 1 {
		t.Fatalf("drift counter = %v, want 1", v)
	}
}

func TestStoreDiskRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wrappers.ndjson")
	s, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	var keys []Key
	for i := 0; i < 5; i++ {
		e := testEntry(fmt.Sprintf("<html><body>%s</body></html>",
			repeatTag("hr", i+2)), 0.99)
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, mustKey(t, e))
	}
	s.ReportDrift(keys[0], "divergent")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 4 {
		t.Fatalf("reloaded %d entries, want 4", re.Len())
	}
	if _, ok := re.Lookup(keys[0]); ok {
		t.Fatal("evicted entry resurrected by replay")
	}
	for _, k := range keys[1:] {
		if _, ok := re.Lookup(k); !ok {
			t.Fatalf("entry %s lost across restart", k)
		}
	}
}

func repeatTag(tag string, n int) string {
	out := ""
	for i := 0; i < n; i++ {
		out += "<" + tag + ">"
	}
	return out
}

func TestStoreTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wrappers.ndjson")
	s, _ := Open(Config{Path: path})
	e := testEntry("<html><body><hr><hr></body></html>", 0.99)
	s.Put(e)
	s.Close()

	// Simulate a crash mid-append: a torn, unterminated final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"v":1,"put":{"key":"dead`)
	f.Close()

	re, err := Open(Config{Path: path})
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("reloaded %d entries, want 1", re.Len())
	}
	if _, ok := re.Lookup(mustKey(t, e)); !ok {
		t.Fatal("acknowledged entry lost to torn tail")
	}
}

func TestStoreCorruptBodyRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wrappers.ndjson")
	good, _ := os.Create(path)
	e := testEntry("<html><body><hr><hr></body></html>", 0.99)
	fmt.Fprintf(good, "this is not json\n")
	fmt.Fprintf(good, `{"v":1,"put":{"key":%q,"separator":"hr","subtree":"body","certainty":0.99}}`+"\n", e.Key)
	good.Close()

	_, err := Open(Config{Path: path})
	if err == nil {
		t.Fatal("corrupt journal body accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v should wrap ErrCorrupt", err)
	}
}

func TestStoreSpotCheckCadence(t *testing.T) {
	s, _ := Open(Config{SpotCheckEvery: 3})
	defer s.Close()
	var pattern []bool
	for i := 0; i < 9; i++ {
		pattern = append(pattern, s.SpotCheck())
	}
	want := []bool{false, false, true, false, false, true, false, false, true}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("spot-check pattern %v, want %v", pattern, want)
		}
	}
	off, _ := Open(Config{})
	defer off.Close()
	for i := 0; i < 10; i++ {
		if off.SpotCheck() {
			t.Fatal("spot-check fired with cadence disabled")
		}
	}
}

func TestStoreLookupFaultDegradesToMiss(t *testing.T) {
	faults := faultinject.New()
	reg := obs.NewRegistry()
	s, _ := Open(Config{Faults: faults, Metrics: reg})
	defer s.Close()
	e := testEntry("<html><body><hr><hr></body></html>", 0.99)
	s.Put(e)

	faults.Inject(FaultLookup, faultinject.Fault{Err: errors.New("store on fire")})
	if _, ok := s.Lookup(mustKey(t, e)); ok {
		t.Fatal("faulted lookup served a hit")
	}
	if v := reg.Counter("boundary_template_lookup_errors_total", "").Value(); v != 1 {
		t.Fatalf("lookup_errors = %v, want 1", v)
	}
	faults.Reset()
	if _, ok := s.Lookup(mustKey(t, e)); !ok {
		t.Fatal("store did not recover after fault cleared")
	}
}

func TestStorePutDedupesAndAbsorbSkipsOnStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wrappers.ndjson")
	s, _ := Open(Config{Path: path})
	defer s.Close()
	var announced int
	s.OnStore = func(*Entry) { announced++ }

	e := testEntry("<html><body><hr><hr></body></html>", 0.99)
	s.Put(e)
	s.Put(e) // identical re-learn: no journal line, no announcement
	if announced != 1 {
		t.Fatalf("OnStore fired %d times, want 1", announced)
	}

	other := testEntry("<html><body><p><p><p></body></html>", 0.98)
	if err := s.Absorb(other); err != nil {
		t.Fatal(err)
	}
	if announced != 1 {
		t.Fatal("Absorb must not fire OnStore (publish loop)")
	}
	if _, ok := s.Lookup(mustKey(t, other)); !ok {
		t.Fatal("absorbed entry not served")
	}

	// A changed answer for the same key is a real update and re-announces.
	e2 := testEntry("<html><body><hr><hr></body></html>", 0.97)
	e2.Separator = "p"
	s.Put(e2)
	if announced != 2 {
		t.Fatalf("OnStore fired %d times after update, want 2", announced)
	}
	got, _ := s.Lookup(mustKey(t, e2))
	if got.Separator != "p" {
		t.Fatal("update did not replace entry")
	}
}

func TestStoreCapacityEviction(t *testing.T) {
	s, _ := Open(Config{Capacity: 3})
	defer s.Close()
	for i := 0; i < 5; i++ {
		e := testEntry(fmt.Sprintf("<html><body>%s</body></html>",
			repeatTag("hr", i+2)), 0.99)
		s.Put(e)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", s.Len())
	}
}

func TestStoreStatsAndReset(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := Open(Config{Metrics: reg})
	defer s.Close()
	e := testEntry("<html><body><hr><hr></body></html>", 0.99)
	s.Put(e)
	s.Lookup(mustKey(t, e))
	s.Lookup(MakeKey(FingerprintDoc("<p>x</p>"), "s"))

	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v", st)
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("Reset left entries behind")
	}
	if g := reg.Gauge("boundary_template_entries", "").Value(); g != 0 {
		t.Fatalf("entries gauge = %v after Reset", g)
	}
}

func TestStoreCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wrappers.ndjson")
	s, _ := Open(Config{Path: path})
	e := testEntry("<html><body><hr><hr></body></html>", 0.99)
	// Churn the same key with alternating answers to build up dead lines.
	for i := 0; i < 50; i++ {
		mod := e.clone()
		if i%2 == 0 {
			mod.Separator = "p"
		}
		s.Put(mod)
	}
	s.Close() // Close compacts: journal should hold exactly one live line

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(strings.TrimRight(string(data), "\n"), "\n") + 1; n != 1 {
		t.Fatalf("compacted journal has %d lines, want 1", n)
	}
	re, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("reloaded %d entries, want 1", re.Len())
	}
}
