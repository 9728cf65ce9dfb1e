// One-pass JSON encoding of span forests, counter totals and event-log
// lines. Each appender writes its value straight into a byte slice, so a
// span tree is encoded once however deep it is; encoding/json, by
// contrast, re-validates a Marshaler's output once per enclosing node.
//
// The bytes are exactly those encoding/json produces for the schema the
// types declare (json_test.go keeps that encoding as an oracle): an
// attribute object has its keys sorted, the last of duplicate keys wins,
// a Kind-'d' key carries durSuffix and an unknown kind is skipped;
// strings are escaped as json.Marshal escapes them (HTML-safe, invalid
// UTF-8 replaced); floats use its shortest form with its exponent
// cut-offs, and NaN or ±Inf fail with its error.
package obs

import (
	"cmp"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// AppendTreeJSON appends the span forest as a JSON array of nodes in the
// Node.MarshalJSON schema, or null for a nil forest.
func AppendTreeJSON(dst []byte, roots []*Node) ([]byte, error) {
	if roots == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, n := range roots {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendNode(dst, n); err != nil {
			return nil, err
		}
	}
	return append(dst, ']'), nil
}

// AppendCountersJSON appends the counter totals as a JSON array of
// {"name","total"} objects, or null for a nil slice.
func AppendCountersJSON(dst []byte, counters []Counter) []byte {
	if counters == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, c := range counters {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = AppendStringJSON(dst, c.Name)
		dst = append(dst, `,"total":`...)
		dst = strconv.AppendInt(dst, c.Total, 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// plainByte marks the bytes json.Marshal writes into a string as they
// are: printable ASCII but for its escapes and the HTML-unsafe <, > and &.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// AppendStringJSON appends s as a JSON string, escaped as json.Marshal
// escapes it.
func AppendStringJSON(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			// Escapes and non-ASCII are rare in span data: leave them,
			// U+2028/U+2029 and invalid UTF-8 to encoding/json itself.
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendNode(dst []byte, n *Node) ([]byte, error) {
	if n == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, `{"id":`...)
	dst = AppendStringJSON(dst, n.ID)
	dst = append(dst, `,"name":`...)
	dst = AppendStringJSON(dst, n.Name)
	dst, err := appendAttrs(dst, `,"attrs":`, n.Attrs)
	if err != nil {
		return nil, err
	}
	dst = append(dst, `,"dur_ns":`...)
	dst = strconv.AppendInt(dst, n.DurNS, 10)
	if len(n.Children) > 0 {
		dst = append(dst, `,"children":`...)
		if dst, err = AppendTreeJSON(dst, n.Children); err != nil {
			return nil, err
		}
	}
	return append(dst, '}'), nil
}

// appendEvent appends one JSONL event-log line (without the newline) in
// the jsonEvent schema.
func appendEvent(dst []byte, e Event) ([]byte, error) {
	dst = append(dst, `{"ev":`...)
	dst = AppendStringJSON(dst, e.Type.String())
	if e.ID != "" {
		dst = append(dst, `,"id":`...)
		dst = AppendStringJSON(dst, e.ID)
	}
	if e.Parent != "" {
		dst = append(dst, `,"parent":`...)
		dst = AppendStringJSON(dst, e.Parent)
	}
	dst = append(dst, `,"name":`...)
	dst = AppendStringJSON(dst, e.Name)
	// An RFC 3339 time is digits and -:.+TZ, none of which needs escaping.
	dst = append(dst, `,"wall":"`...)
	dst = e.Wall.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, '"')
	if e.Dur != 0 {
		dst = append(dst, `,"dur_ns":`...)
		dst = strconv.AppendInt(dst, int64(e.Dur), 10)
	}
	if e.Delta != 0 {
		dst = append(dst, `,"delta":`...)
		dst = strconv.AppendInt(dst, e.Delta, 10)
	}
	dst, err := appendAttrs(dst, `,"attrs":`, e.Attrs)
	if err != nil {
		return nil, err
	}
	return append(dst, '}'), nil
}

// appendAttrs appends field (a `,"name":` prefix) and the attributes as a
// JSON object, or nothing when no attribute reaches the object.
func appendAttrs(dst []byte, field string, attrs []Attr) ([]byte, error) {
	var buf [16]int
	order := attrOrder(buf[:0], attrs)
	if len(order) == 0 {
		return dst, nil
	}
	dst = append(dst, field...)
	dst = append(dst, '{')
	for i, x := range order {
		if i > 0 {
			dst = append(dst, ',')
		}
		a := attrs[x]
		dst = AppendStringJSON(dst, a.Key)
		if a.Kind == KindDur {
			// The suffix is plain ASCII, so escaping the key and the
			// suffix apart equals escaping their join.
			dst = append(dst[:len(dst)-1], durSuffix+`"`...)
		}
		dst = append(dst, ':')
		switch a.Kind {
		case KindStr:
			dst = AppendStringJSON(dst, a.Str)
		case KindInt, KindDur:
			dst = strconv.AppendInt(dst, a.Int, 10)
		case KindFloat:
			var err error
			if dst, err = appendFloat(dst, a.Flt); err != nil {
				return nil, err
			}
		case KindBool:
			dst = strconv.AppendBool(dst, a.Int != 0)
		}
	}
	return append(dst, '}'), nil
}

// attrOrder appends to idx the indexes of the attributes that reach the
// JSON object, in the order of their wire keys: known kinds only, and of
// equal keys only the last, as a map assignment per attribute leaves it.
func attrOrder(idx []int, attrs []Attr) []int {
	for i, a := range attrs {
		switch a.Kind {
		case KindStr, KindInt, KindFloat, KindBool, KindDur:
			idx = append(idx, i)
		}
	}
	slices.SortStableFunc(idx, func(x, y int) int { return cmpKeys(&attrs[x], &attrs[y]) })
	out := idx[:0]
	for i, x := range idx {
		if i+1 < len(idx) && cmpKeys(&attrs[x], &attrs[idx[i+1]]) == 0 {
			continue
		}
		out = append(out, x)
	}
	return out
}

// cmpKeys compares two attributes' wire keys (Key, plus durSuffix on a
// Kind-'d' attribute) byte-wise without joining them.
func cmpKeys(a, b *Attr) int {
	if a.Kind != KindDur && b.Kind != KindDur {
		return strings.Compare(a.Key, b.Key)
	}
	x, xs := a.Key, wireSuffix(a)
	y, ys := b.Key, wireSuffix(b)
	for {
		if x == "" {
			x, xs = xs, ""
		}
		if y == "" {
			y, ys = ys, ""
		}
		if x == "" || y == "" {
			return cmp.Compare(len(x), len(y))
		}
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		x, y = x[n:], y[n:]
	}
}

func wireSuffix(a *Attr) string {
	if a.Kind == KindDur {
		return durSuffix
	}
	return ""
}

// appendFloat appends f in encoding/json's float64 form.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f) // the same *json.UnsupportedValueError
		return nil, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
