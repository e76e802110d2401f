package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/tagtree"
	"repro/internal/template"
)

// TestAnswersDoNotPinDocument: nothing a kept answer holds may point into
// the request document, or every cached answer, wrapper-store entry and
// kept trace would hold its whole document alive. Tag names are views of
// the document inside the tree; the strings reachable from Result.Answer,
// NewTemplateEntry and the trace's span attributes must not be.
func TestAnswersDoNotPinDocument(t *testing.T) {
	type page struct {
		name, mode, doc string
		ont             *ontology.Ontology
	}
	var pages []page
	for _, d := range corpus.TestDocuments() {
		pages = append(pages, page{d.Site.Name, "html", d.HTML, d.Site.Domain.Ontology()})
	}
	pages = append(pages,
		page{name: "xml", mode: "xml", doc: `<feed><Entry><Title>a</Title><Body>x</Body></Entry>` +
			`<Entry><Title>b</Title><Body>y</Body></Entry><Entry><Title>c</Title><Body>z</Body></Entry></feed>`},
		page{name: "unknown tag", mode: "html", doc: `<html><body><listing>` +
			strings.Repeat(`<record><x-name>Alpha</x-name> one</record><sep>`, 4) + `</listing></body></html>`},
	)
	for _, p := range pages {
		doc := strings.Clone(p.doc) // memory of its own, shared with no constant
		arena := tagtree.AcquireArena()
		tr := obs.NewTrace()
		opts := Options{Ontology: p.ont, Arena: arena, Trace: tr}
		var (
			res *Result
			err error
		)
		if p.mode == "xml" {
			res, err = DiscoverXMLContext(context.Background(), doc, opts)
		} else {
			res, err = DiscoverContext(context.Background(), doc, opts)
		}
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		tr.Finish()
		check := func(what string, v any) {
			walkStrings(reflect.ValueOf(v), what, func(path, s string) {
				if pointsInto(s, doc) {
					t.Errorf("%s: %s = %q points into the document", p.name, path, s)
				}
			})
		}
		check("Answer()", res.Answer())
		check("NewTemplateEntry", NewTemplateEntry(template.Key{}, res))
		td := tr.Snapshot()
		check("trace root attrs", td.RootAttrs)
		for _, s := range td.Spans {
			check("trace span "+s.Name, s.Attrs)
		}
		arena.Release()
	}
}

// pointsInto reports whether s's bytes start inside doc's.
func pointsInto(s, doc string) bool {
	if s == "" {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	d := uintptr(unsafe.Pointer(unsafe.StringData(doc)))
	return p >= d && p < d+uintptr(len(doc))
}

// walkStrings calls fn on every string reachable from v through exported
// struct fields, pointers, slices, arrays, maps (keys and values) and
// interfaces.
func walkStrings(v reflect.Value, path string, fn func(path, s string)) {
	switch v.Kind() {
	case reflect.String:
		fn(path, v.String())
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			walkStrings(v.Elem(), path, fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				walkStrings(v.Field(i), path+"."+f.Name, fn)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkStrings(v.Index(i), path+"[]", fn)
		}
	case reflect.Map:
		it := v.MapRange()
		for it.Next() {
			walkStrings(it.Key(), path+"{key}", fn)
			walkStrings(it.Value(), path+"{}", fn)
		}
	}
}
