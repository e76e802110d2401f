package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/paperdoc"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "doc.html")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunExplain(t *testing.T) {
	var out strings.Builder
	err := run(&out, "obituary", false, true, false, false, false, []string{writeTemp(t, paperdoc.Figure2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"separator: <hr>", "OM: [(hr, 1)", "(hr, 99.96%)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRecords(t *testing.T) {
	var out strings.Builder
	err := run(&out, "", true, false, false, false, false, []string{writeTemp(t, paperdoc.Figure2)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "--- record 2") || !strings.Contains(out.String(), "Lemar K. Adamson") {
		t.Errorf("records missing:\n%s", out.String())
	}
}

func TestRunXML(t *testing.T) {
	var out strings.Builder
	path := writeTemp(t, "<c><item>a b</item><item>c d</item><item>e f</item></c>")
	err := run(&out, "", false, false, true, false, false, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "separator: <item>") {
		t.Errorf("xml output:\n%s", out.String())
	}
}

func TestRunCheckRefusesSingleRecord(t *testing.T) {
	single := `<html><body><div><b>One Person</b> passed away on March 3, 1998.
Funeral services will be held Friday. Interment will follow.</div></body></html>`
	var out strings.Builder
	err := run(&out, "obituary", false, false, false, true, false, []string{writeTemp(t, single)})
	if err == nil {
		t.Fatal("expected refusal for single-record page")
	}
	if !strings.Contains(out.String(), "single-record") {
		t.Errorf("classification line missing:\n%s", out.String())
	}
}

func TestRunTrace(t *testing.T) {
	var out strings.Builder
	err := run(&out, "obituary", false, true, false, false, true, []string{writeTemp(t, paperdoc.Figure2)})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"stage timings:",
		"stage", "duration", "attributes",
		"parse", "fanout", "candidates", "recognize",
		"heuristic/OM", "heuristic/RP", "heuristic/SD", "heuristic/IT", "heuristic/HT",
		"combine", "separator=hr", "total",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("trace output missing %q:\n%s", want, got)
		}
	}
}

func TestRunCheckNeedsOntology(t *testing.T) {
	var out strings.Builder
	err := run(&out, "", false, false, false, true, false, []string{writeTemp(t, paperdoc.Figure2)})
	if err == nil || !strings.Contains(err.Error(), "-ontology") {
		t.Errorf("err = %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "", false, true, false, false, false, []string{"/nonexistent/file.html"}); err == nil {
		t.Error("missing file should error")
	}
	if err := run(&out, "no-such-ontology", false, true, false, false, false, []string{writeTemp(t, paperdoc.Figure2)}); err == nil {
		t.Error("bad ontology should error")
	}
	if err := run(&out, "", false, true, false, false, false, []string{writeTemp(t, "no tags")}); err == nil {
		t.Error("tagless document should error")
	}
}

// TestRunDegradedNoTopTagFails: a degraded result that names no separator at
// all must exit non-zero and name the failed heuristics, not print an empty
// answer with exit 0.
func TestRunDegradedNoTopTagFails(t *testing.T) {
	orig := discoverHTML
	defer func() { discoverHTML = orig }()
	discoverHTML = func(doc string, opts core.Options) (*core.Result, error) {
		return &core.Result{
			Degraded:         true,
			FailedHeuristics: []string{"OM", "RP", "SD", "IT", "HT"},
		}, nil
	}
	var out strings.Builder
	err := run(&out, "", false, true, false, false, false, []string{writeTemp(t, paperdoc.Figure2)})
	if err == nil {
		t.Fatal("degraded result with no top tag must be an error")
	}
	for _, want := range []string{"degraded", "OM", "RP", "SD", "IT", "HT"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err.Error(), want)
		}
	}
}

// TestRunDegradedWithTopTagSucceeds: degradation with a surviving answer is
// still a usable result and must keep exit status 0.
func TestRunDegradedWithTopTagSucceeds(t *testing.T) {
	orig := discoverHTML
	defer func() { discoverHTML = orig }()
	discoverHTML = func(doc string, opts core.Options) (*core.Result, error) {
		res, err := core.Discover(doc, opts)
		if err != nil {
			return nil, err
		}
		res.Degraded = true
		res.FailedHeuristics = []string{"SD"}
		return res, nil
	}
	var out strings.Builder
	err := run(&out, "", false, false, false, false, false, []string{writeTemp(t, paperdoc.Figure2)})
	if err != nil {
		t.Fatalf("degraded-with-answer should succeed: %v", err)
	}
	if !strings.Contains(out.String(), "separator: <hr>") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestLoadOntologyFromDSLFile(t *testing.T) {
	dsl := "ontology X\nentity X\nobject A : many {\nkeyword `k`\n}\n"
	path := filepath.Join(t.TempDir(), "x.ont")
	if err := os.WriteFile(path, []byte(dsl), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(&out, path, false, true, false, false, false, []string{writeTemp(t, paperdoc.Figure2)}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "separator: <hr>") {
		t.Errorf("output:\n%s", out.String())
	}
	missing := filepath.Join(t.TempDir(), "missing.ont")
	err := run(&out, missing, false, false, false, false, false, []string{writeTemp(t, paperdoc.Figure2)})
	if err == nil || !strings.Contains(err.Error(), "is neither built-in nor readable") {
		t.Errorf("missing ontology file: err = %v", err)
	}
}
