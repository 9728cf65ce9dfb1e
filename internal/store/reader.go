// Streaming binary-trace reader: the inverse of writer.go, decoding one
// compressed block at a time. Every malformed input — bad magic, corrupt
// varints, wrong CRCs, truncation, trailing bytes — returns an error
// wrapping ErrFormat; the decoder never panics and never allocates
// proportionally to attacker-controlled lengths.
package store

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"sherlock/internal/trace"
)

// flateReaders pools block decompressors (io.ReadClosers implementing
// flate.Resetter) across Readers; a Reader takes one at its first block,
// resets it per block, and returns it once the stream ends, cleanly or
// not.
var flateReaders = sync.Pool{New: func() any { return flate.NewReader(bytes.NewReader(nil)) }}

// Reader decodes one binary trace stream incrementally. Use NewReader to
// parse the header, then Next until io.EOF. The trailer's event count is
// validated before Next reports EOF, so a truncated stream can never be
// mistaken for a short trace.
type Reader struct {
	br          *bufio.Reader
	meta        Meta
	blockEvents int

	strings []string

	// Current block.
	raw      []byte
	off      int
	left     int // events remaining in this block
	prevTime int64
	prevAddr uint64

	count int
	done  bool
	err   error

	comp io.ReadCloser // from flateReaders
}

// NewReader parses the magic, version, and header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, formatErr("short magic: %v", err)
	}
	if string(magic[:4]) != Magic {
		return nil, formatErr("bad magic %q", magic[:4])
	}
	if magic[4] != Version {
		return nil, formatErr("unsupported version %d (want %d)", magic[4], Version)
	}
	rd := &Reader{br: br}
	var err error
	if rd.meta.App, err = rd.readString(); err != nil {
		return nil, fmt.Errorf("app: %w", err)
	}
	if rd.meta.Test, err = rd.readString(); err != nil {
		return nil, fmt.Errorf("test: %w", err)
	}
	seed, err := rd.readVarint()
	if err != nil {
		return nil, fmt.Errorf("seed: %w", err)
	}
	rd.meta.Seed = seed
	be, err := rd.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("block size: %w", err)
	}
	if be == 0 || be > maxBlockEvents {
		return nil, formatErr("block size %d out of range [1,%d]", be, maxBlockEvents)
	}
	rd.blockEvents = int(be)
	return rd, nil
}

// Meta returns the stream header's trace metadata.
func (rd *Reader) Meta() Meta { return rd.meta }

// Count returns the number of events decoded so far; after Next has
// returned io.EOF it equals the trailer's validated total.
func (rd *Reader) Count() int { return rd.count }

// Next returns the next event, or io.EOF after the last one. Any other
// error wraps ErrFormat (corruption) or comes from the underlying reader.
func (rd *Reader) Next() (trace.Event, error) {
	if rd.err != nil {
		return trace.Event{}, rd.err
	}
	if rd.left == 0 {
		if err := rd.nextBlock(); err != nil {
			return trace.Event{}, rd.end(err)
		}
		if rd.done {
			return trace.Event{}, rd.end(io.EOF)
		}
	}
	e, err := rd.decodeEvent()
	if err != nil {
		return trace.Event{}, rd.end(err)
	}
	rd.left--
	rd.count++
	if rd.left == 0 && rd.off != len(rd.raw) {
		return trace.Event{}, rd.end(formatErr("block has %d undecoded payload bytes", len(rd.raw)-rd.off))
	}
	return e, nil
}

// end records the stream's terminal error (io.EOF on success) and returns
// the decompressor to the pool.
func (rd *Reader) end(err error) error {
	rd.err = err
	if rd.comp != nil {
		flateReaders.Put(rd.comp)
		rd.comp = nil
	}
	return err
}

// nextBlock reads, verifies, and decompresses the next block, or consumes
// the trailer and sets done.
func (rd *Reader) nextBlock() error {
	n, err := rd.readUvarint()
	if err != nil {
		return fmt.Errorf("block count: %w", err)
	}
	if n == 0 {
		// Trailer: total event count must match what we decoded.
		total, err := rd.readUvarint()
		if err != nil {
			return fmt.Errorf("trailer: %w", err)
		}
		if total != uint64(rd.count) {
			return formatErr("trailer declares %d events, decoded %d", total, rd.count)
		}
		rd.done = true
		return nil
	}
	if n > uint64(rd.blockEvents) {
		return formatErr("block of %d events exceeds declared block size %d", n, rd.blockEvents)
	}
	rawLen, err := rd.readUvarint()
	if err != nil {
		return fmt.Errorf("block raw length: %w", err)
	}
	if rawLen > maxBlockRaw {
		return formatErr("block raw length %d exceeds cap %d", rawLen, maxBlockRaw)
	}
	compLen, err := rd.readUvarint()
	if err != nil {
		return fmt.Errorf("block compressed length: %w", err)
	}
	if compLen > maxBlockRaw {
		return formatErr("block compressed length %d exceeds cap %d", compLen, maxBlockRaw)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(rd.br, crcb[:]); err != nil {
		return formatErr("block crc: %v", err)
	}
	comp := make([]byte, compLen)
	if _, err := io.ReadFull(rd.br, comp); err != nil {
		return formatErr("block payload: %v", err)
	}
	if got, want := crc32.ChecksumIEEE(comp), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return formatErr("block crc mismatch: %#x != %#x", got, want)
	}

	if rd.comp == nil {
		rd.comp = flateReaders.Get().(io.ReadCloser)
	}
	if err := rd.comp.(flate.Resetter).Reset(bytes.NewReader(comp), nil); err != nil {
		return formatErr("flate reset: %v", err)
	}
	if cap(rd.raw) < int(rawLen) {
		rd.raw = make([]byte, rawLen)
	}
	rd.raw = rd.raw[:rawLen]
	if _, err := io.ReadFull(rd.comp, rd.raw); err != nil {
		return formatErr("block decompress: %v", err)
	}
	var one [1]byte
	if n, _ := io.ReadFull(rd.comp, one[:]); n != 0 {
		return formatErr("block decompresses past its declared raw length %d", rawLen)
	}
	rd.off = 0
	rd.left = int(n)
	rd.prevTime, rd.prevAddr = 0, 0
	return nil
}

// decodeEvent parses one event record from the current block payload.
func (rd *Reader) decodeEvent() (trace.Event, error) {
	var e trace.Event
	flags, err := rd.payloadByte()
	if err != nil {
		return e, fmt.Errorf("flags: %w", err)
	}
	if flags&flagReserved != 0 {
		return e, formatErr("event %d sets reserved flag bits %#x", rd.count, flags)
	}
	e.Kind = trace.Kind(flags & flagKindMask)
	acc := trace.Acc((flags & flagAccMask) >> flagAccShift)
	if acc > trace.AccWrite {
		return e, formatErr("event %d has invalid access class %d", rd.count, acc)
	}
	e.Acc = acc
	e.Lib = flags&flagLib != 0
	e.Unsafe = flags&flagUnsafe != 0

	dt, err := rd.payloadVarint()
	if err != nil {
		return e, fmt.Errorf("time: %w", err)
	}
	rd.prevTime += dt
	e.Time = rd.prevTime

	th, err := rd.payloadVarint()
	if err != nil {
		return e, fmt.Errorf("thread: %w", err)
	}
	e.Thread = int(th)

	ref, err := rd.payloadUvarint()
	if err != nil {
		return e, fmt.Errorf("name ref: %w", err)
	}
	if ref == 0 {
		s, err := rd.payloadString()
		if err != nil {
			return e, fmt.Errorf("name: %w", err)
		}
		rd.strings = append(rd.strings, s)
		e.Name = s
	} else {
		if ref > uint64(len(rd.strings)) {
			return e, formatErr("event %d references string %d of a %d-entry table", rd.count, ref, len(rd.strings))
		}
		e.Name = rd.strings[ref-1]
	}

	da, err := rd.payloadVarint()
	if err != nil {
		return e, fmt.Errorf("addr: %w", err)
	}
	rd.prevAddr += uint64(da)
	e.Addr = rd.prevAddr

	if e.Obj, err = rd.payloadUvarint(); err != nil {
		return e, fmt.Errorf("obj: %w", err)
	}
	site, err := rd.payloadVarint()
	if err != nil {
		return e, fmt.Errorf("site: %w", err)
	}
	e.Site = int(site)
	child, err := rd.payloadVarint()
	if err != nil {
		return e, fmt.Errorf("child: %w", err)
	}
	e.Child = int(child)

	if flags&flagExtra != 0 {
		n, err := rd.payloadUvarint()
		if err != nil {
			return e, fmt.Errorf("extra count: %w", err)
		}
		if n == 0 || n > maxExtra || n > uint64(len(rd.raw)-rd.off) {
			return e, formatErr("event %d declares %d extra values with %d payload bytes left", rd.count, n, len(rd.raw)-rd.off)
		}
		e.Extra = make([]uint64, n)
		for i := range e.Extra {
			if e.Extra[i], err = rd.payloadUvarint(); err != nil {
				return e, fmt.Errorf("extra %d: %w", i, err)
			}
		}
	}
	return e, nil
}

// ---------------------------------------------------------------------------
// Primitive decoding
// ---------------------------------------------------------------------------

// readUvarint reads a varint from the stream (header/block framing).
func (rd *Reader) readUvarint() (uint64, error) {
	v, err := binary.ReadUvarint(rd.br)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, formatErr("truncated varint")
		}
		return 0, err
	}
	return v, nil
}

func (rd *Reader) readVarint() (int64, error) {
	v, err := rd.readUvarint()
	return unzigzag(v), err
}

func (rd *Reader) readString() (string, error) {
	n, err := rd.readUvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", formatErr("string of %d bytes exceeds cap %d", n, maxStringLen)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(rd.br, b); err != nil {
		return "", formatErr("truncated %d-byte string: %v", n, err)
	}
	return string(b), nil
}

// payloadByte reads one byte from the current block payload.
func (rd *Reader) payloadByte() (byte, error) {
	if rd.off >= len(rd.raw) {
		return 0, formatErr("truncated block payload")
	}
	b := rd.raw[rd.off]
	rd.off++
	return b, nil
}

func (rd *Reader) payloadUvarint() (uint64, error) {
	v, n := binary.Uvarint(rd.raw[rd.off:])
	if n <= 0 {
		return 0, formatErr("truncated or oversized varint in block payload")
	}
	rd.off += n
	return v, nil
}

func (rd *Reader) payloadVarint() (int64, error) {
	v, err := rd.payloadUvarint()
	return unzigzag(v), err
}

func (rd *Reader) payloadString() (string, error) {
	n, err := rd.payloadUvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen || n > uint64(len(rd.raw)-rd.off) {
		return "", formatErr("string of %d bytes with %d payload bytes left", n, len(rd.raw)-rd.off)
	}
	s := string(rd.raw[rd.off : rd.off+int(n)])
	rd.off += int(n)
	return s, nil
}

// ---------------------------------------------------------------------------
// Whole-trace convenience
// ---------------------------------------------------------------------------

// ReadTrace decodes one complete binary trace and errors on trailing
// garbage after the trailer — a stored blob contains exactly one trace.
func ReadTrace(r io.Reader) (*trace.Trace, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t := &trace.Trace{App: rd.meta.App, Test: rd.meta.Test, Seed: rd.meta.Seed}
	for {
		e, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		t.Events = append(t.Events, e)
	}
	if _, err := rd.br.ReadByte(); err != io.EOF {
		return nil, formatErr("trailing garbage after trace trailer")
	}
	return t, nil
}

// DecodeTrace decodes a complete in-memory encoding (the inverse of
// EncodeTrace).
func DecodeTrace(data []byte) (*trace.Trace, error) {
	return ReadTrace(bytes.NewReader(data))
}
