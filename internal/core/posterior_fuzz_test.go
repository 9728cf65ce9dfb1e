package core

import (
	"context"
	"reflect"
	"testing"

	"sherlock/internal/apps"
)

// FuzzDecodePosterior: DecodePosterior never panics, and any document it
// accepts survives encode → decode as an equal value (an empty
// probability map and an absent one are the same posterior: omitempty
// drops both). The corpus starts from real refine posteriors of
// App-1..App-3 plus one document with the wrong version.
func FuzzDecodePosterior(f *testing.F) {
	cfg := DefaultConfig()
	for _, name := range []string{"App-1", "App-2", "App-3"} {
		app, err := apps.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		res, err := Infer(context.Background(), app, cfg)
		if err != nil {
			f.Fatal(err)
		}
		data, err := EncodePosterior(PosteriorFromResult(res, cfg))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":"sherlock-posterior-v0","app":"App-1","config_sig":"x","acquires":{"r:C::f":1}}`))
	nilEmpty := func(p *Posterior) *Posterior {
		if len(p.Acquires) == 0 {
			p.Acquires = nil
		}
		if len(p.Releases) == 0 {
			p.Releases = nil
		}
		return p
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePosterior(data)
		if err != nil {
			return
		}
		enc, err := EncodePosterior(p)
		if err != nil {
			t.Fatalf("accepted posterior does not encode: %v", err)
		}
		again, err := DecodePosterior(enc)
		if err != nil {
			t.Fatalf("re-encoded posterior does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(nilEmpty(again), nilEmpty(p)) {
			t.Fatalf("posterior changed across encode/decode:\nbefore: %+v\nafter:  %+v", p, again)
		}
	})
}
