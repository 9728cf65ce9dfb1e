package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// The oracle: the nested encoding/json form the one-pass appenders
// (json.go) replaced. Every node marshaled itself through an anonymous
// struct with an attribute map, and JSONLSink marshaled a jsonEvent.

type oracleNode struct{ n *Node }

func (o *oracleNode) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID       string         `json:"id"`
		Name     string         `json:"name"`
		Attrs    map[string]any `json:"attrs,omitempty"`
		DurNS    int64          `json:"dur_ns"`
		Children []*oracleNode  `json:"children,omitempty"`
	}{o.n.ID, o.n.Name, attrMap(o.n.Attrs), o.n.DurNS, oracleForest(o.n.Children)})
}

// oracleForest wraps a forest, keeping nil slices and nil nodes nil.
func oracleForest(ns []*Node) []*oracleNode {
	if ns == nil {
		return nil
	}
	out := make([]*oracleNode, len(ns))
	for i, n := range ns {
		if n != nil {
			out[i] = &oracleNode{n}
		}
	}
	return out
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	out := make(map[string]any, len(attrs))
	for _, a := range attrs {
		switch a.Kind {
		case KindStr:
			out[a.Key] = a.Str
		case KindInt:
			out[a.Key] = a.Int
		case KindFloat:
			out[a.Key] = a.Flt
		case KindBool:
			out[a.Key] = a.Int != 0
		case KindDur:
			out[a.Key+durSuffix] = a.Int
		}
	}
	return out
}

func oracleEvent(e Event) ([]byte, error) {
	return json.Marshal(jsonEvent{
		Ev:     e.Type.String(),
		ID:     e.ID,
		Parent: e.Parent,
		Name:   e.Name,
		Wall:   e.Wall.UTC().Format(time.RFC3339Nano),
		DurNS:  int64(e.Dur),
		Delta:  e.Delta,
		Attrs:  attrMap(e.Attrs),
	})
}

// sameJSON fails unless both encodings failed or both produced got's bytes.
func sameJSON(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, oracle error %v", what, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the oracle:\n got %s\nwant %s", what, got, want)
	}
}

// TestEventLinesMatchOracle re-emits every event of a real campaign's
// event log: each line must equal the oracle's bytes and the line it was
// parsed from. ParseJSONL builds attrs in map order, so the appender sees
// them unsorted.
func TestEventLinesMatchOracle(t *testing.T) {
	log, err := os.ReadFile("testdata/campaign_app2.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	events, err := ParseJSONL(log)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(log, []byte("\n")), []byte("\n"))
	if len(lines) != len(events) {
		t.Fatalf("%d lines, %d events", len(lines), len(events))
	}
	for i, e := range events {
		got, err := appendEvent(nil, e)
		want, werr := oracleEvent(e)
		sameJSON(t, "event line", got, err, want, werr)
		if !bytes.Equal(got, lines[i]) {
			t.Fatalf("line %d changed across a round trip:\n got %s\nwant %s", i+1, got, lines[i])
		}
	}
}

// shapeReader decodes a fuzz input into a span forest. Strings are
// slices of text (cut anywhere, so invalid UTF-8 arises); keys also come
// from fixedKeys, so duplicates and the Kind-'d' collision ("k" as a
// duration and "k_wall_ns" as a string) arise; floats come from a pool
// holding the fuzzed pair and encoding/json's edge values.
type shapeReader struct {
	shape  []byte
	text   string
	floats []float64
}

var fixedKeys = []string{"k", "k_wall_ns", "windows", "", "k_wall_n"}

func (r *shapeReader) next() byte {
	if len(r.shape) == 0 {
		return 0
	}
	b := r.shape[0]
	r.shape = r.shape[1:]
	return b
}

func (r *shapeReader) str() string {
	lo, hi := int(r.next())%(len(r.text)+1), int(r.next())%(len(r.text)+1)
	return r.text[min(lo, hi):max(lo, hi)]
}

// forest reads a count byte c: c%4 nodes, or a nil forest for c 0.
func (r *shapeReader) forest(depth int) []*Node {
	c := r.next()
	if c == 0 {
		return nil
	}
	ns := make([]*Node, c%4)
	for i := range ns {
		ns[i] = r.node(depth)
	}
	return ns
}

// node reads a flag byte b (0xff: a nil node; else b%6 attrs), then the
// ID, name, duration, attrs and children.
func (r *shapeReader) node(depth int) *Node {
	b := r.next()
	if b == 0xff {
		return nil
	}
	n := &Node{ID: r.str(), Name: r.str(), DurNS: int64(int8(r.next())) << (r.next() % 64)}
	for range b % 6 {
		n.Attrs = append(n.Attrs, r.attr())
	}
	if depth < 4 {
		n.Children = r.forest(depth + 1)
	}
	return n
}

// attr reads a kind byte (s, i, f, b, d or an unknown kind), a key byte
// (even: a fixed key, odd: a text slice) and the value.
func (r *shapeReader) attr() Attr {
	a := Attr{Kind: "sifbdx"[r.next()%6]}
	if k := r.next(); k%2 == 0 {
		a.Key = fixedKeys[int(k/2)%len(fixedKeys)]
	} else {
		a.Key = r.str()
	}
	switch a.Kind {
	case KindStr:
		a.Str = r.str()
	case KindFloat:
		a.Flt = r.floats[int(r.next())%len(r.floats)]
	default:
		a.Int = int64(int8(r.next())) << (r.next() % 64)
	}
	return a
}

// FuzzSpanJSON: for an arbitrary forest, the one-pass appenders and
// Node.MarshalJSON produce the oracle's bytes, or all of them fail.
// Checked: the forest (AppendTreeJSON and json.Marshal of []*Node), one
// event-log line per node, and counters named by the nodes.
func FuzzSpanJSON(f *testing.F) {
	edge := "<>&\"\\\x00\x01\x1f\b\f\n\r\t\x7f\xff\xc3é\u2028\u2029 ok"
	// One node: "k" as a duration then "k_wall_ns" as a string (the
	// string wins), a float under its own key, a duration that keeps
	// its suffix ("k_wall_n_wall_ns") and an int under the empty key;
	// once per float of the pool.
	for fl := range byte(11) {
		collide := []byte{1, 5, 0, 5, 0, 3, 7, 0,
			4, 0, 9, 0,
			0, 2, 1, 4,
			2, 4, fl,
			4, 8, 3, 1,
			1, 6, 5, 0,
			0}
		f.Add(collide, edge, 1e21, math.Copysign(0, -1))
	}
	f.Add([]byte{3, 5, 1, 9, 2, 30, 1, 1, 2, 3, 0, 6, 5, 3, 7, 7, 1, 2, 255, 3, 0, 1, 4, 4, 9, 11, 13, 2, 2, 2, 0}, edge, 0.1, 1e20)
	f.Add([]byte{2, 255, 255}, "", 0.0, 0.0)
	f.Add([]byte{4}, edge, 1.0, 2.0)

	f.Fuzz(func(t *testing.T, shape []byte, text string, x, y float64) {
		r := &shapeReader{shape: shape, text: text, floats: []float64{
			x, y, 1e21, 1e-7, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0.1, 1e20, 1e-6,
		}}
		forest := r.forest(0)

		want, werr := json.Marshal(oracleForest(forest))
		got, err := AppendTreeJSON(nil, forest)
		sameJSON(t, "AppendTreeJSON", got, err, want, werr)
		got, err = json.Marshal(forest)
		sameJSON(t, "json.Marshal([]*Node)", got, err, want, werr)

		var counters []Counter
		var walk func(ns []*Node, parent string)
		walk = func(ns []*Node, parent string) {
			for _, n := range ns {
				if n == nil {
					continue
				}
				e := Event{Type: EventType(n.DurNS & 3), ID: n.ID, Parent: parent, Name: n.Name,
					Wall: time.Unix(0, n.DurNS), Dur: time.Duration(n.DurNS), Delta: int64(len(n.Attrs)), Attrs: n.Attrs}
				want, werr := oracleEvent(e)
				got, err := appendEvent(nil, e)
				sameJSON(t, "event line", got, err, want, werr)
				counters = append(counters, Counter{Name: n.Name, Total: n.DurNS})
				walk(n.Children, n.ID)
			}
		}
		walk(forest, "")
		want, werr = json.Marshal(counters)
		sameJSON(t, "AppendCountersJSON", AppendCountersJSON(nil, counters), nil, want, werr)
	})
}
