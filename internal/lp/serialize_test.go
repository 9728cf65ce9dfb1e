package lp

import (
	"encoding/json"
	"testing"
)

// TestBasisDocumentStrings checks that decoding a basis document and
// encoding it again reproduces it byte for byte, for every identity form
// a solve renders and for strings no solve produces.
func TestBasisDocumentStrings(t *testing.T) {
	for _, doc := range []string{
		`{"rows":["mp_rel(w1)","ub(x^acq)","ub()","ub(a)b)","c#0"],"bcol":["v:x^acq","s:ub(x^acq)","a:mp_rel(w1)","s:","q"]}`,
		`{"rows":["ub(x","x)"],"bcol":["a:ub(y)","v:"]}`,
		`{"rows":[],"bcol":[]}`,
		`{"rows":null,"bcol":null}`,
	} {
		var b Basis
		if err := json.Unmarshal([]byte(doc), &b); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		out, err := json.Marshal(&b)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != doc {
			t.Errorf("round trip changed the document:\n got %s\nwant %s", out, doc)
		}
	}
	// A constraint named like an upper-bound row is that row's identity.
	if rowIdent("ub(x)") != (ident{idUB, "x"}) || slackOf(rowIdent("ub(x)")) != parseCol("s:ub(x)") {
		t.Fatal("ub(x) does not resolve to the upper-bound row identity")
	}
}
