package template

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/htmlparse"
	"repro/internal/journal"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/tagtree"
	"repro/internal/wire"
)

// ErrCorrupt marks a wrapper-store journal whose body (not merely its torn
// tail) fails to decode. Callers distinguish it from I/O errors with
// errors.Is; the store refuses to open over corruption rather than silently
// serving a partial memory of what it learned.
var ErrCorrupt = errors.New("template: corrupt store journal")

// Entry is a learned wrapper: the complete, reconstructable discovery answer
// for one (fingerprint, options) key. It snapshots every field a discover
// response or downstream record split needs, so serving from the store is
// byte-identical to re-running the heuristics on an identically-shaped page.
// Entries are stored only for clean (non-degraded) discoveries.
type Entry struct {
	// Key is the hex store key (MakeKey of fingerprint + option salt).
	Key string `json:"key"`
	// Answer is the discovery answer as every surface encodes it. Its
	// Subtree names the highest-fan-out node the answer was learned on; a
	// hit whose document disagrees is drift, not a servable answer.
	wire.Answer
	// Reasons carries per-heuristic decline reasons (library surface).
	Reasons map[string]string `json:"reasons,omitempty"`
	// Certainty is the compound CF of the winning separator — the entry's
	// health: below the store's MinCertainty it is evicted on lookup.
	Certainty float64 `json:"certainty"`
}

// Validate checks an entry is well-formed enough to serve: parseable key,
// non-empty separator and subtree, certainty in [0,1].
func (e *Entry) Validate() error {
	if e == nil {
		return errors.New("template: nil entry")
	}
	if _, err := ParseKey(e.Key); err != nil {
		return err
	}
	if e.Separator == "" {
		return errors.New("template: entry missing separator")
	}
	if e.Subtree == "" {
		return errors.New("template: entry missing subtree")
	}
	if e.Certainty < 0 || e.Certainty > 1 {
		return fmt.Errorf("template: entry certainty %v out of range", e.Certainty)
	}
	return nil
}

// clone deep-copies an entry so cached state can never be mutated through a
// pointer a caller (or the JSON decoder on a later Absorb) still holds. Like
// wire.Answer.Clone it leaves Rankings non-nil, which is what lets an entry
// journaled with "rankings": null compare Equal to its relearned twin.
func (e *Entry) clone() *Entry {
	c := *e
	c.Answer = e.Answer.Clone()
	c.Reasons = maps.Clone(e.Reasons)
	return &c
}

// Equal reports semantic equality. The store uses it to suppress redundant
// journal writes and publish loops when a replica re-learns what it already
// knows; spot-checks use it to compare a stored answer against a fresh
// full-discovery answer.
func (e *Entry) Equal(o *Entry) bool {
	ej, _ := json.Marshal(e)
	oj, _ := json.Marshal(o)
	return string(ej) == string(oj)
}

// DefaultMinCertainty is the drift floor: stored answers whose compound CF
// fell below it are evicted on lookup and relearned. The paper's Figure-2
// worked example lands at 0.9996; anything under one-half means the
// heuristics themselves were ambivalent, so we don't trust a cached copy.
const DefaultMinCertainty = 0.5

// DefaultCapacity bounds the in-memory entry count when Config.Capacity is
// zero. One entry is a few hundred bytes; 4096 covers far more distinct
// templates than any real site exhibits.
const DefaultCapacity = 4096

// Fault hook points owned by this package (catalog: docs/ROBUSTNESS.md).
const (
	// FaultLookup fires at the head of every store lookup; an armed error
	// turns the lookup into a miss (counted as a lookup error), proving
	// a degraded store falls back to full discovery.
	FaultLookup = "template/lookup"
	// FaultPublish fires before each peer publish attempt.
	FaultPublish = "template/publish"
)

// Config configures a Store.
type Config struct {
	// Capacity bounds in-memory entries (LRU); 0 means DefaultCapacity.
	Capacity int
	// Path is the disk journal; empty means memory-only.
	Path string
	// MinCertainty is the drift floor; 0 means DefaultMinCertainty. Use a
	// negative value to disable the floor entirely.
	MinCertainty float64
	// SpotCheckEvery re-verifies every Nth hit against full discovery
	// (deterministic cadence, not sampling, so tests are exact); 0
	// disables spot-checks.
	SpotCheckEvery int
	// Metrics receives boundary_template_* series; nil disables.
	Metrics *obs.Registry
	// Faults is the chaos-test hook set; nil disables.
	Faults *faultinject.Set
}

// Store maps template keys to learned wrappers. It is safe for concurrent
// use, optionally journaled to disk for warm restarts, and shared: in a
// cluster every in-process replica holds the same *Store, and remote
// replicas are warmed through a Publisher wired to OnStore.
type Store struct {
	cfg Config

	journal *journal.Journal // nil when memory-only

	cache *lru.Cache[Key, *Entry]

	hits atomic.Uint64 // lifetime hit ordinal, drives spot-check cadence

	// OnStore, when non-nil, observes every locally-learned entry (Put,
	// not Absorb — absorbed entries came from a peer and re-announcing
	// them would loop). Set it before the store sees traffic.
	OnStore func(*Entry)

	mHits, mMisses, mStores, mAbsorbs, mLookupErrs *obs.Counter
	mEntries                                       *obs.Gauge
}

// Open creates a store. With a non-empty cfg.Path it replays the journal
// through the shared internal/journal machinery (tolerating a torn final
// line, exactly like the bulk checkpoint journal) and keeps the file open
// for appends; a journal corrupt before its final line returns an error
// wrapping ErrCorrupt.
func Open(cfg Config) (*Store, error) {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.MinCertainty == 0 {
		cfg.MinCertainty = DefaultMinCertainty
	}
	s := &Store{
		cfg:   cfg,
		cache: lru.New[Key, *Entry](cfg.Capacity),

		mHits:       cfg.Metrics.Counter("boundary_template_hits_total", "Template fast-path lookups served from the wrapper store."),
		mMisses:     cfg.Metrics.Counter("boundary_template_misses_total", "Template fast-path lookups that fell back to full discovery."),
		mStores:     cfg.Metrics.Counter("boundary_template_stores_total", "Learned wrappers stored locally."),
		mAbsorbs:    cfg.Metrics.Counter("boundary_template_absorbs_total", "Learned wrappers absorbed from cluster peers."),
		mLookupErrs: cfg.Metrics.Counter("boundary_template_lookup_errors_total", "Store lookups that failed and degraded to a miss."),
		mEntries:    cfg.Metrics.Gauge("boundary_template_entries", "Learned wrappers currently held in memory."),
	}
	if cfg.Path != "" {
		j, err := journal.Open(journal.Config{
			Path:     cfg.Path,
			Snapshot: s.snapshot,
			Faults:   cfg.Faults,
		}, s.applyPut, s.applyEvict)
		if err != nil {
			if errors.Is(err, journal.ErrCorrupt) {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			return nil, err
		}
		s.journal = j
	}
	s.mEntries.Set(float64(s.cache.Len()))
	return s, nil
}

// applyPut replays one journaled put into the cache; a malformed or invalid
// entry is an error the journal layer maps to torn-tail tolerance or
// ErrCorrupt by position.
func (s *Store) applyPut(put json.RawMessage) error {
	var e Entry
	if err := json.Unmarshal(put, &e); err != nil {
		return err
	}
	if err := e.Validate(); err != nil {
		return err
	}
	k, _ := ParseKey(e.Key)
	s.cache.Add(k, e.clone())
	return nil
}

// applyEvict replays one journaled eviction.
func (s *Store) applyEvict(key string) error {
	k, err := ParseKey(key)
	if err != nil {
		return err
	}
	s.cache.Remove(k)
	return nil
}

// snapshot emits every live entry for journal compaction, least recently
// used first (the order that, replayed, reproduces the recency state).
func (s *Store) snapshot() []json.RawMessage {
	vals := s.cache.Values()
	out := make([]json.RawMessage, 0, len(vals))
	for _, e := range vals {
		b, err := json.Marshal(e)
		if err != nil {
			continue
		}
		out = append(out, b)
	}
	return out
}

// appendPut journals one stored entry.
func (s *Store) appendPut(e *Entry) {
	if s.journal == nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	s.journal.Append(b, s.cache.Len())
}

// Lookup returns a copy of the stored entry for key, if one exists and is
// healthy. A lookup fault (chaos: FaultLookup) or a below-floor certainty
// degrades to a miss; the latter also evicts so the next discovery relearns
// the template.
func (s *Store) Lookup(key Key) (*Entry, bool) {
	e, ok := s.lookupShared(key)
	if !ok {
		return nil, false
	}
	return e.clone(), true
}

// lookupShared is Lookup without the copy: the entry is the store's own,
// which the store never modifies once added.
func (s *Store) lookupShared(key Key) (*Entry, bool) {
	if s == nil {
		return nil, false
	}
	if err := s.cfg.Faults.Fire(FaultLookup); err != nil {
		s.mLookupErrs.Inc()
		s.mMisses.Inc()
		return nil, false
	}
	e, ok := s.cache.Get(key)
	if !ok {
		s.mMisses.Inc()
		return nil, false
	}
	if e.Certainty < s.cfg.MinCertainty {
		s.evict(key, "low_certainty")
		s.mMisses.Inc()
		return nil, false
	}
	s.mHits.Inc()
	return e, true
}

// LookupDoc is Lookup over a raw HTML document: it fingerprints doc with the
// fast scanner and returns the entry, the computed key (for a later Put on
// miss), and whether it hit. A document outside lim — its size, or the node
// count or depth its tag tree would have — never hits, so the caller's full
// discovery rejects it exactly as a cold request would be rejected.
//
// Unlike Lookup, LookupDoc returns the store's own entry, shared by every
// hit on the key: callers must not modify it. The HTTP fast path only
// encodes it, and skipping Lookup's deep copy takes about a third off a
// warm hit.
func (s *Store) LookupDoc(doc, salt string, lim tagtree.Limits) (*Entry, Key, bool) {
	if htmlparse.CheckSize(doc, lim.MaxBytes) != nil {
		return nil, Key{}, false
	}
	fp, shape := scanDoc(doc)
	if shape.exceeds(lim) {
		return nil, Key{}, false
	}
	key := MakeKey(fp, salt)
	e, ok := s.lookupShared(key)
	return e, key, ok
}

// SpotCheck reports whether this hit should be re-verified against full
// discovery. The cadence is a deterministic 1-in-N on the lifetime hit
// ordinal, so tests can force the Nth request to verify.
func (s *Store) SpotCheck() bool {
	if s == nil || s.cfg.SpotCheckEvery <= 0 {
		return false
	}
	return s.hits.Add(1)%uint64(s.cfg.SpotCheckEvery) == 0
}

// Learn files a full-discovery answer: a degraded one is dropped (it came
// from the surviving heuristics only, the result cache's completeness rule),
// anything else is Put. spot is the stored entry a spot-checked hit is
// re-verifying, or nil: a spot matching the fresh answer counts as "ok"; a
// divergent one is drift — evicted, then overwritten by the fresh answer.
func (s *Store) Learn(spot, fresh *Entry) {
	if s == nil || fresh.Degraded {
		return
	}
	if spot != nil {
		outcome := "ok"
		if !spot.Equal(fresh) {
			outcome = "divergent"
			if key, err := ParseKey(fresh.Key); err == nil {
				s.evict(key, outcome)
			}
		}
		s.cfg.Metrics.Counter("boundary_template_spot_checks_total",
			"Template hits re-verified against full discovery, by outcome.",
			"outcome", outcome).Inc()
	}
	// An answer Put rejects as invalid is just not learned; the caller has
	// already served it from full discovery.
	_ = s.Put(fresh)
}

// Put stores a locally-learned entry: validates, caches, journals, and
// announces it through OnStore. Identical re-learns are dropped so replicas
// don't re-journal and re-publish what they already know.
func (s *Store) Put(e *Entry) error {
	if s == nil {
		return nil
	}
	return s.add(e, true)
}

// Absorb stores an entry received from a cluster peer. It is Put without the
// OnStore announcement — re-publishing a received entry would bounce it
// around the ring forever.
func (s *Store) Absorb(e *Entry) error {
	if s == nil {
		return nil
	}
	return s.add(e, false)
}

func (s *Store) add(e *Entry, local bool) error {
	if err := e.Validate(); err != nil {
		return err
	}
	key, _ := ParseKey(e.Key)
	e = e.clone()
	if old, ok := s.cache.Get(key); ok && old.Equal(e) {
		return nil
	}
	s.cache.Add(key, e)
	s.mEntries.Set(float64(s.cache.Len()))
	if local {
		s.mStores.Inc()
	} else {
		s.mAbsorbs.Inc()
	}
	s.appendPut(e)
	if local && s.OnStore != nil {
		s.OnStore(e)
	}
	return nil
}

// ReportDrift evicts key because its stored answer no longer matches the
// document (reason "divergent"), the page shape ("subtree_mismatch"), or the
// certainty floor ("low_certainty"), and counts the eviction by reason.
func (s *Store) ReportDrift(key Key, reason string) {
	if s == nil {
		return
	}
	s.evict(key, reason)
}

func (s *Store) evict(key Key, reason string) {
	if s.cache.Remove(key) && s.journal != nil {
		s.journal.AppendEvict(key.String(), s.cache.Len())
	}
	s.mEntries.Set(float64(s.cache.Len()))
	s.cfg.Metrics.Counter("boundary_template_drift_total",
		"Stored wrappers evicted as drifted, by reason.", "reason", reason).Inc()
}

// Stats is a point-in-time snapshot of the store's counters for the stats
// endpoint and tests.
type Stats struct {
	Entries      int     `json:"entries"`
	Hits         float64 `json:"hits"`
	Misses       float64 `json:"misses"`
	Stores       float64 `json:"stores"`
	Absorbs      float64 `json:"absorbs"`
	LookupErrors float64 `json:"lookup_errors"`
}

// Stats returns current counters. Without a metrics registry only Entries is
// populated.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Entries:      s.cache.Len(),
		Hits:         s.mHits.Value(),
		Misses:       s.mMisses.Value(),
		Stores:       s.mStores.Value(),
		Absorbs:      s.mAbsorbs.Value(),
		LookupErrors: s.mLookupErrs.Value(),
	}
}

// Len returns the number of entries held in memory.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	return s.cache.Len()
}

// Entries returns a snapshot of all live entries, least recently used first
// (the publisher uses it to warm a newly-joined peer).
func (s *Store) Entries() []*Entry {
	if s == nil {
		return nil
	}
	vals := s.cache.Values()
	out := make([]*Entry, len(vals))
	for i, e := range vals {
		out[i] = e.clone()
	}
	return out
}

// Reset drops every in-memory entry (journal untouched; benchmarks use it to
// force the miss path).
func (s *Store) Reset() {
	if s == nil {
		return
	}
	for _, e := range s.cache.Values() {
		if k, err := ParseKey(e.Key); err == nil {
			s.cache.Remove(k)
		}
	}
	s.mEntries.Set(float64(s.cache.Len()))
}

// Close compacts and closes the journal. The store must not be used after
// Close; a memory-only store's Close is a no-op.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	return s.journal.Close()
}
