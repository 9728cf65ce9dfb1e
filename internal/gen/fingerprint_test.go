package gen

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"sherlock/internal/prog"
)

// Fingerprint renders a finalized program — methods, tests, statements
// (with site ids), and the full ground truth — as a canonical string.
// Two builds of the same spec must produce byte-identical fingerprints;
// this is the determinism contract TestDeterminism checks, one level
// stronger than equality of static.ProgramHash.
func Fingerprint(p *prog.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %s title=%q loc=%d stars=%d papertests=%d\n",
		p.Name, p.Title, p.LoC, p.Stars, p.PaperTests)
	for _, n := range sortedKeys(p.Methods) {
		fmt.Fprintf(&sb, "method %s\n", n)
		writeStmts(&sb, p.Methods[n].Body, 1)
	}
	for _, t := range p.Tests {
		fmt.Fprintf(&sb, "test %s init=%q\n", t.Name, t.Init)
		writeStmts(&sb, t.Body, 1)
	}
	tr := p.Truth
	for _, k := range sortedKeys(tr.Syncs) {
		fmt.Fprintf(&sb, "sync %v role=%v optional=%v\n", k, tr.Syncs[k], tr.Optional[k])
	}
	for _, k := range sortedKeys(tr.RacyKeys) {
		fmt.Fprintf(&sb, "racykey %v\n", k)
	}
	for _, f := range sortedKeys(tr.RacyFields) {
		fmt.Fprintf(&sb, "racyfield %s\n", f)
	}
	for _, m := range sortedKeys(tr.HiddenMethods) {
		fmt.Fprintf(&sb, "hiddenmethod %s\n", m)
	}
	for _, k := range sortedKeys(tr.Category) {
		fmt.Fprintf(&sb, "category %v=%s\n", k, tr.Category[k])
	}
	for _, f := range sortedKeys(p.Volatile) {
		fmt.Fprintf(&sb, "volatile %s\n", f)
	}
	return sb.String()
}

func writeStmts(sb *strings.Builder, ss []prog.Stmt, depth int) {
	indent := strings.Repeat("  ", depth)
	for _, s := range ss {
		// A Loop's Body holds interface values whose %#v rendering
		// would include pointer addresses; print its scalars and recurse.
		if l, ok := s.(*prog.Loop); ok {
			fmt.Fprintf(sb, "%sloop site=%d n=%d\n", indent, l.Site(), l.N)
			writeStmts(sb, l.Body, depth+1)
			continue
		}
		fmt.Fprintf(sb, "%s%#v\n", indent, s)
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
