// Streaming binary-trace writer: events are buffered into fixed-size
// blocks, each block is flate-compressed, checksummed, and flushed before
// the next begins, so memory use is one block regardless of trace length.
package store

import (
	"bufio"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"sherlock/internal/trace"
)

// flateWriters pools block compressors across Writers. flate.NewWriter
// allocates the compressor's large tables, and Reset is specified to
// leave a writer equal to a fresh one, so pooling changes no output byte.
var flateWriters = sync.Pool{New: func() any {
	w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		panic(err) // only an invalid level fails
	}
	return w
}}

// Writer encodes one trace as a binary stream. Create with NewWriter, feed
// events with Add (timestamps in any order; deltas are signed), and finish
// with Close — the trailer written by Close is what makes the stream
// complete, and a reader treats its absence as truncation.
type Writer struct {
	w           *bufio.Writer
	blockEvents int

	// Current block, encoded form.
	buf     []byte
	inBlock int

	// Delta state, reset at block boundaries.
	prevTime int64
	prevAddr uint64

	// Per-trace string-interning table (name -> id).
	strings map[string]uint64

	total  int
	closed bool
	err    error

	// Compression state: comp comes from flateWriters and goes back in
	// Close.
	comp    *flate.Writer
	compBuf []byte
}

// NewWriter writes the magic, version, and header for meta and returns a
// Writer positioned at the first event. blockEvents <= 0 selects
// DefaultBlockEvents; EncodeTrace always uses the default, which is the
// canonical (content-addressed) form.
func NewWriter(w io.Writer, meta Meta, blockEvents int) (*Writer, error) {
	if blockEvents <= 0 {
		blockEvents = DefaultBlockEvents
	}
	if blockEvents > maxBlockEvents {
		return nil, fmt.Errorf("store: block size %d exceeds the format cap %d", blockEvents, maxBlockEvents)
	}
	bw := bufio.NewWriter(w)
	hdr := make([]byte, 0, 64)
	hdr = append(hdr, Magic...)
	hdr = append(hdr, Version)
	hdr = appendString(hdr, meta.App)
	hdr = appendString(hdr, meta.Test)
	hdr = appendVarint(hdr, meta.Seed)
	hdr = appendUvarint(hdr, uint64(blockEvents))
	if _, err := bw.Write(hdr); err != nil {
		return nil, fmt.Errorf("store: write header: %w", err)
	}
	return &Writer{
		w:           bw,
		blockEvents: blockEvents,
		strings:     make(map[string]uint64),
		comp:        flateWriters.Get().(*flate.Writer),
	}, nil
}

// Add appends one event to the stream, flushing a finished block to the
// underlying writer when the block fills.
func (wr *Writer) Add(e *trace.Event) error {
	if wr.err != nil {
		return wr.err
	}
	if wr.closed {
		return fmt.Errorf("store: Add after Close")
	}
	if e.Kind > trace.KindEnd {
		return wr.fail(fmt.Errorf("store: event %d has invalid kind %d", wr.total, e.Kind))
	}
	if e.Acc > trace.AccWrite {
		return wr.fail(fmt.Errorf("store: event %d has invalid access class %d", wr.total, e.Acc))
	}

	flags := byte(e.Kind) | byte(e.Acc)<<flagAccShift
	if e.Lib {
		flags |= flagLib
	}
	if e.Unsafe {
		flags |= flagUnsafe
	}
	if len(e.Extra) > 0 {
		flags |= flagExtra
	}
	wr.buf = append(wr.buf, flags)
	wr.buf = appendVarint(wr.buf, e.Time-wr.prevTime)
	wr.buf = appendVarint(wr.buf, int64(e.Thread))
	if id, ok := wr.strings[e.Name]; ok {
		wr.buf = appendUvarint(wr.buf, id+1)
	} else {
		wr.buf = appendUvarint(wr.buf, 0)
		wr.buf = appendString(wr.buf, e.Name)
		wr.strings[e.Name] = uint64(len(wr.strings))
	}
	wr.buf = appendVarint(wr.buf, int64(e.Addr-wr.prevAddr))
	wr.buf = appendUvarint(wr.buf, e.Obj)
	wr.buf = appendVarint(wr.buf, int64(e.Site))
	wr.buf = appendVarint(wr.buf, int64(e.Child))
	if len(e.Extra) > 0 {
		wr.buf = appendUvarint(wr.buf, uint64(len(e.Extra)))
		for _, x := range e.Extra {
			wr.buf = appendUvarint(wr.buf, x)
		}
	}
	wr.prevTime, wr.prevAddr = e.Time, e.Addr
	wr.inBlock++
	wr.total++
	if wr.inBlock >= wr.blockEvents {
		return wr.flushBlock()
	}
	return nil
}

// flushBlock compresses, checksums, and writes the pending block.
func (wr *Writer) flushBlock() error {
	if wr.inBlock == 0 {
		return nil
	}
	wr.compBuf = wr.compBuf[:0]
	sink := (*sliceWriter)(&wr.compBuf)
	wr.comp.Reset(sink)
	if _, err := wr.comp.Write(wr.buf); err != nil {
		return wr.fail(fmt.Errorf("store: compress block: %w", err))
	}
	if err := wr.comp.Close(); err != nil {
		return wr.fail(fmt.Errorf("store: compress block: %w", err))
	}

	var hdr []byte
	hdr = appendUvarint(hdr, uint64(wr.inBlock))
	hdr = appendUvarint(hdr, uint64(len(wr.buf)))
	hdr = appendUvarint(hdr, uint64(len(wr.compBuf)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(wr.compBuf))
	if _, err := wr.w.Write(hdr); err != nil {
		return wr.fail(fmt.Errorf("store: write block header: %w", err))
	}
	if _, err := wr.w.Write(wr.compBuf); err != nil {
		return wr.fail(fmt.Errorf("store: write block payload: %w", err))
	}
	wr.buf = wr.buf[:0]
	wr.inBlock = 0
	wr.prevTime, wr.prevAddr = 0, 0
	return nil
}

// Close flushes the final partial block and writes the trailer (end marker
// plus total event count). The stream is not decodable without it.
func (wr *Writer) Close() error {
	if wr.err != nil {
		return wr.err
	}
	if wr.closed {
		return nil
	}
	if err := wr.flushBlock(); err != nil {
		return err
	}
	wr.comp.Reset(io.Discard) // drop the reference to compBuf
	flateWriters.Put(wr.comp)
	wr.comp = nil
	var tr []byte
	tr = appendUvarint(tr, 0) // end-of-blocks marker
	tr = appendUvarint(tr, uint64(wr.total))
	if _, err := wr.w.Write(tr); err != nil {
		return wr.fail(fmt.Errorf("store: write trailer: %w", err))
	}
	wr.closed = true
	return wr.w.Flush()
}

func (wr *Writer) fail(err error) error {
	wr.err = err
	return err
}

// sliceWriter lets flate append into a reusable byte slice.
type sliceWriter []byte

func (s *sliceWriter) Write(p []byte) (int, error) {
	*s = append(*s, p...)
	return len(p), nil
}

// EncodeTrace returns the canonical binary encoding of t: default block
// size, fixed compression level, interning in first-appearance order. The
// corpus content address is the SHA-256 of these bytes.
func EncodeTrace(t *trace.Trace) ([]byte, error) {
	var buf sliceWriter
	wr, err := NewWriter(&buf, Meta{App: t.App, Test: t.Test, Seed: t.Seed}, 0)
	if err != nil {
		return nil, err
	}
	for i := range t.Events {
		if err := wr.Add(&t.Events[i]); err != nil {
			return nil, err
		}
	}
	if err := wr.Close(); err != nil {
		return nil, err
	}
	return buf, nil
}
