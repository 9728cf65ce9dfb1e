// Deterministic span-tree reconstruction and rendering. Sinks receive
// events in completion order, which is nondeterministic under a parallel
// runner; the tree view re-keys everything by structural span ID, sorts
// children and counters, and drops wall-clock fields — yielding a form
// that is byte-identical across runs and parallelism levels for the same
// campaign (the golden tests enforce it).
package obs

import (
	"fmt"
	"io"
	"slices"
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
// sherlockd spans endpoint's schema), the whole subtree in one pass
// (json.go).
func (n *Node) MarshalJSON() ([]byte, error) { return appendNode(nil, n) }

// BuildTree reconstructs the span forest from events. Nodes are created
// from start events and finalized (attrs, duration) by end events; spans
// that never ended keep their start-time attrs. Roots and children are
// sorted by ID. A parent cycle (a span naming itself, or spans naming
// each other) is cut at its smallest ID, which becomes a root, so every
// span appears exactly once. Counter events are ignored here (see
// CounterTotals).
func BuildTree(events []Event) []*Node {
	// The nodes and their attribute copies live in two arrays, one
	// allocation each: a served job's tree has hundreds of spans. A span
	// has a start and an end event, hence len(events)/2 nodes. attrs
	// takes each event's attrs at most once, so it never grows and the
	// slices carved from it stay put.
	nAttrs := 0
	for _, e := range events {
		nAttrs += len(e.Attrs)
	}
	attrs := make([]Attr, 0, nAttrs)
	copyAttrs := func(a []Attr) []Attr {
		if len(a) == 0 {
			return nil
		}
		attrs = append(attrs, a...)
		return attrs[len(attrs)-len(a) : len(attrs) : len(attrs)]
	}
	index := make(map[string]int, len(events)/2)
	nodes := make([]Node, 0, len(events)/2)
	var parents []string
	for _, e := range events {
		if e.Type == EvCounter {
			continue
		}
		i, ok := index[e.ID]
		if !ok {
			i = len(nodes)
			index[e.ID] = i
			nodes = append(nodes, Node{ID: e.ID, Name: e.Name})
			parents = append(parents, e.Parent)
		}
		n := &nodes[i]
		if e.Type == EvSpanEnd {
			n.Attrs = copyAttrs(e.Attrs)
			n.DurNS = int64(e.Dur)
		} else if n.Attrs == nil {
			n.Attrs = copyAttrs(e.Attrs)
		}
	}
	parent := make([]int, len(nodes))
	for i := range nodes {
		parent[i] = -1
		if p, ok := index[parents[i]]; ok && parents[i] != "" {
			parent[i] = p
		}
	}
	breakCycles(nodes, parent)
	// nodes is complete: pointers into it stay valid from here on.
	var roots []*Node
	for i := range nodes {
		if p := parent[i]; p >= 0 {
			nodes[p].Children = append(nodes[p].Children, &nodes[i])
		} else {
			roots = append(roots, &nodes[i])
		}
	}
	sortNodes(roots)
	return roots
}

// breakCycles makes the smallest ID on every cycle of parent links a root
// (parent -1). Each node has one parent, so a walk up from any node ends
// at a root or runs into a cycle; every node is walked over once.
func breakCycles(nodes []Node, parent []int) {
	const (
		unseen = iota
		onPath
		done
	)
	state := make([]uint8, len(nodes))
	var path []int
	for i := range nodes {
		path = path[:0]
		j := i
		for j >= 0 && state[j] == unseen {
			state[j] = onPath
			path = append(path, j)
			j = parent[j]
		}
		if j >= 0 && state[j] == onPath {
			// The walk came back to j: j's cycle has no root yet.
			least := j
			for k := parent[j]; k != j; k = parent[k] {
				if nodes[k].ID < nodes[least].ID {
					least = k
				}
			}
			parent[least] = -1
		}
		for _, k := range path {
			state[k] = done
		}
	}
}

func sortNodes(ns []*Node) {
	slices.SortFunc(ns, func(a, b *Node) int { return strings.Compare(a.ID, b.ID) })
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
