package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/sched"
	"sherlock/internal/store"
)

// oneTraceCheckpoint encodes the checkpoint of an incremental solve over
// the first trace of app's first test.
func oneTraceCheckpoint(tb testing.TB, appName string) []byte {
	tb.Helper()
	app, err := apps.ByName(appName)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := sched.Run(app, app.Tests[0], sched.Options{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	key, err := store.Key(r.Trace)
	if err != nil {
		tb.Fatal(err)
	}
	src := KeyedSlice{{Key: key, Trace: r.Trace}}
	_, ck, err := InferIncremental(context.Background(), nil, src, DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	data, err := EncodeCheckpoint(ck)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzDecodeCheckpoint: DecodeCheckpoint never panics, and any document
// it accepts re-encodes to bytes that decode and re-encode to themselves.
// The corpus starts from real one-trace checkpoints of App-1..App-3, so
// mutations reach the embedded lp.Basis JSON.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, app := range []string{"App-1", "App-2", "App-3"} {
		f.Add(oneTraceCheckpoint(f, app))
	}
	f.Add([]byte(`{"version":"sherlock-checkpoint-v1","config_sig":"x","basis":{"rows":["ub(a)","r"],"bcol":["s:ub(a)","q"]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		once, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		again, err := DecodeCheckpoint(once)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v\n%s", err, once)
		}
		twice, err := EncodeCheckpoint(again)
		if err != nil {
			t.Fatalf("decoded re-encoding does not encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", once, twice)
		}
	})
}

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
