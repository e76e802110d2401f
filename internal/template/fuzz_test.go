package template

import (
	"context"
	"testing"

	"repro/internal/tagtree"
)

// FuzzFingerprintDoc pins the load-bearing equivalence of the fast path: the
// specialized tag-only scanner must agree byte-for-byte with the reference
// tree walk on arbitrary input. Any divergence means a warm request could be
// served a wrapper learned for a differently-shaped page.
func FuzzFingerprintDoc(f *testing.F) {
	seeds := []string{
		"",
		"<html><body><hr><hr><hr></body></html>",
		"<html><body><ul><li>a<li>b<li>c</ul></body></html>",
		"<table><tr><td>a<tr><td>b</table>",
		"<script>'</scr'+'ipt>'</script><p>a</p>",
		"<div a='<b>' b=\">\"><p>x</div>",
		"<!doctype html><!-- c --><p>a<p>b",
		"<br/><BR></br><x:y.z-w_v>t</x:y.z-w_v>",
		"<select><option>1<option>2</select>",
		"<p <div> </p x>",
		"<textarea></textarea\u00e9></textarea>",
		"<div><span><span><b>x</b></span></span><hr/><p/><br></div>",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		fast := FingerprintDoc(doc)
		ref, _ := FingerprintTree(tagtree.Parse(doc))
		if fast != ref {
			t.Fatalf("scanner/tree fingerprint divergence on %q:\n  doc  %s\n  tree %s",
				doc, fast, ref)
		}
		if again := FingerprintDoc(doc); again != fast {
			t.Fatalf("FingerprintDoc not deterministic on %q", doc)
		}

		// The scanner's node and depth counts decide whether a warm hit
		// may skip the tree builder's limits, so each bound at and just
		// under them must be accepted or rejected exactly as the builder
		// accepts or rejects the document.
		_, shape := scanDoc(doc)
		var limits []tagtree.Limits
		for _, n := range []int{max(shape.nodes, 1), shape.nodes - 1} {
			if n > 0 {
				limits = append(limits, tagtree.Limits{MaxNodes: n})
			}
		}
		for _, d := range []int{max(shape.depth, 1), shape.depth - 1} {
			if d > 0 {
				limits = append(limits, tagtree.Limits{MaxDepth: d})
			}
		}
		for _, lim := range limits {
			_, err := tagtree.ParseContext(context.Background(), doc, lim)
			if shape.exceeds(lim) != (err != nil) {
				t.Fatalf("scanner counts %d nodes, depth %d on %q; under %+v the tree builder says %v",
					shape.nodes, shape.depth, doc, lim, err)
			}
		}
	})
}
