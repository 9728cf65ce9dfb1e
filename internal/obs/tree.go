// Deterministic span-tree reconstruction and rendering. Sinks receive
// events in completion order, which is nondeterministic under a parallel
// runner; the tree view re-keys everything by structural span ID, sorts
// children and counters, and drops wall-clock fields — yielding a form
// that is byte-identical across runs and parallelism levels for the same
// campaign (the golden tests enforce it).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Node is one reconstructed span. DurNS is wall clock and therefore
// nondeterministic; it is serialized for human consumption (the sherlockd
// spans endpoint) but excluded from the deterministic text rendering.
type Node struct {
	ID       string  `json:"id"`
	Name     string  `json:"name"`
	Attrs    []Attr  `json:"-"`
	DurNS    int64   `json:"dur_ns"`
	Children []*Node `json:"children,omitempty"`
}

// MarshalJSON renders the node with its attributes as a JSON object (the
// sherlockd spans endpoint's schema).
func (n *Node) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID       string         `json:"id"`
		Name     string         `json:"name"`
		Attrs    map[string]any `json:"attrs,omitempty"`
		DurNS    int64          `json:"dur_ns"`
		Children []*Node        `json:"children,omitempty"`
	}{n.ID, n.Name, attrMap(n.Attrs), n.DurNS, n.Children})
}

// BuildTree reconstructs the span forest from events. Nodes are created
// from start events and finalized (attrs, duration) by end events; spans
// that never ended keep their start-time attrs. Roots and children are
// sorted by ID. Counter events are ignored here (see CounterTotals).
func BuildTree(events []Event) []*Node {
	nodes := map[string]*Node{}
	parent := map[string]string{}
	order := []string{}
	for _, e := range events {
		if e.Type == EvCounter {
			continue
		}
		n, ok := nodes[e.ID]
		if !ok {
			n = &Node{ID: e.ID, Name: e.Name}
			nodes[e.ID] = n
			parent[e.ID] = e.Parent
			order = append(order, e.ID)
		}
		if e.Type == EvSpanEnd {
			n.Attrs = append([]Attr(nil), e.Attrs...)
			n.DurNS = int64(e.Dur)
		} else if n.Attrs == nil {
			n.Attrs = append([]Attr(nil), e.Attrs...)
		}
	}
	var roots []*Node
	for _, id := range order {
		n := nodes[id]
		if p, ok := nodes[parent[id]]; ok && parent[id] != "" {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortNodes(roots)
	return roots
}

func sortNodes(ns []*Node) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
	for _, n := range ns {
		sortNodes(n.Children)
	}
}

// CounterTotals aggregates counter events by name, sorted — the
// deterministic counter view of an event stream.
func CounterTotals(events []Event) []Counter {
	totals := map[string]int64{}
	for _, e := range events {
		if e.Type == EvCounter {
			totals[e.Name] += e.Delta
		}
	}
	out := make([]Counter, 0, len(totals))
	for k, v := range totals {
		out = append(out, Counter{Name: k, Total: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Render writes the deterministic text form of a span forest: one line per
// span, two-space indentation, attributes sorted by key, wall-clock
// durations and Kind-'d' attributes excluded.
func Render(w io.Writer, roots []*Node) {
	for _, n := range roots {
		renderNode(w, n, 0)
	}
}

func renderNode(w io.Writer, n *Node, depth int) {
	fmt.Fprintf(w, "%s%s", strings.Repeat("  ", depth), n.Name)
	attrs := make([]Attr, 0, len(n.Attrs))
	for _, a := range n.Attrs {
		if a.Kind != KindDur {
			attrs = append(attrs, a)
		}
	}
	sort.SliceStable(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
	if len(attrs) > 0 {
		parts := make([]string, len(attrs))
		for i, a := range attrs {
			parts[i] = a.Key + "=" + a.value()
		}
		fmt.Fprintf(w, "{%s}", strings.Join(parts, " "))
	}
	fmt.Fprintln(w)
	for _, c := range n.Children {
		renderNode(w, c, depth+1)
	}
}

// RenderEvents renders an event stream deterministically: the span forest
// followed by the sorted counter totals.
func RenderEvents(events []Event) string {
	var b strings.Builder
	Render(&b, BuildTree(events))
	if counters := CounterTotals(events); len(counters) > 0 {
		fmt.Fprintln(&b, "counters:")
		for _, c := range counters {
			fmt.Fprintf(&b, "  %s=%d\n", c.Name, c.Total)
		}
	}
	return b.String()
}
