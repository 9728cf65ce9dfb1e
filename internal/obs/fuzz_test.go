package obs

import (
	"bytes"
	"os"
	"testing"
)

// FuzzParseJSONL: ParseJSONL never panics, and whatever it accepts
// survives a second trip through the wire format: re-emitting the events
// through a JSONLSink and parsing again renders the same deterministic
// span tree and counter totals. Seeds are a real campaign's -trace-out log
// (App-2, one round), each of its lines alone, and the sample campaign.
func FuzzParseJSONL(f *testing.F) {
	log, err := os.ReadFile("testdata/campaign_app2.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	for _, line := range bytes.SplitAfter(log, []byte("\n")) {
		f.Add(line)
	}
	var sample bytes.Buffer
	emitSample(NewJSONLSink(&sample))
	f.Add(sample.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ParseJSONL(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		sink := NewJSONLSink(&buf)
		for _, e := range events {
			sink.Emit(e)
		}
		if err := sink.Err(); err != nil {
			t.Fatalf("re-emitting parsed events: %v", err)
		}
		again, err := ParseJSONL(buf.Bytes())
		if err != nil {
			t.Fatalf("re-parsing re-emitted events: %v\n%s", err, buf.Bytes())
		}
		if got, want := RenderEvents(again), RenderEvents(events); got != want {
			t.Fatalf("render changed across a round trip:\n%s\n---\n%s", got, want)
		}
	})
}
