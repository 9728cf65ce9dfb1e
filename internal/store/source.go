// Corpus-backed trace sources and format sniffing. Source satisfies
// core.TraceSource structurally (this package does not import core), so a
// corpus plugs straight into core.InferFromSource while decoding one
// trace at a time — inference memory stays bounded by the largest single
// trace, not the corpus.
package store

import (
	"bufio"
	"bytes"
	"context"
	"io"

	"sherlock/internal/obs"
	"sherlock/internal/trace"
)

// Source streams a fixed, deterministic sequence of corpus traces.
type Source struct {
	c    *Corpus
	keys []string
}

// Source returns a streaming source over the given keys in the given
// order, or over the whole corpus in sorted-key order when none are
// given. Missing keys surface as errors at iteration time.
func (c *Corpus) Source(keys ...string) *Source {
	if len(keys) == 0 {
		for _, e := range c.Entries() {
			keys = append(keys, e.Key)
		}
	}
	return &Source{c: c, keys: keys}
}

// Keys returns the keys the source will iterate, in order.
func (s *Source) Keys() []string { return append([]string(nil), s.keys...) }

// Traces decodes each trace in turn and hands it to yield, stopping on
// the first decode or yield error and between traces when ctx is done.
// When the corpus has a tracer, each decode records a "decode:<key>" span
// (the yield itself — inference work — is not part of the span).
func (s *Source) Traces(ctx context.Context, yield func(*trace.Trace) error) error {
	return s.KeyedTraces(ctx, func(_ string, t *trace.Trace) error { return yield(t) })
}

// KeyedTraces is Traces yielding each trace's content address alongside
// it, satisfying core.KeyedSource structurally — the incremental solve
// needs the keys to track checkpoint coverage.
func (s *Source) KeyedTraces(ctx context.Context, yield func(string, *trace.Trace) error) error {
	for _, key := range s.keys {
		if err := ctx.Err(); err != nil {
			return err
		}
		span := s.c.tracer.Root("decode", spanKey(key))
		t, err := s.c.Get(key)
		if err != nil {
			span.End()
			return err
		}
		span.Annotate(
			obs.Str("app", t.App),
			obs.Str("test", t.Test),
			obs.Int("events", t.Len()))
		span.End()
		if err := yield(key, t); err != nil {
			return err
		}
	}
	return nil
}

// Sniff reports whether data begins like a binary trace stream (magic
// prefix) rather than the JSON-lines interchange format.
func Sniff(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic
}

// Decode parses a trace in either supported serialization, detecting the
// format from the first bytes: the binary format's magic, otherwise
// JSON lines.
func Decode(r io.Reader) (*trace.Trace, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(Magic))
	if err != nil && err != io.EOF {
		return nil, err
	}
	if Sniff(head) {
		return ReadTrace(br)
	}
	return trace.Read(br)
}

// DecodeBytes is Decode over an in-memory buffer.
func DecodeBytes(data []byte) (*trace.Trace, error) {
	return Decode(bytes.NewReader(data))
}
