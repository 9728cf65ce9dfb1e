// Cross-solve warm starting. A Basis carries a solve's optimal basis as
// (row, basic column) identity pairs — nothing numerical. An identity is
// a (kind, name) value: a constraint row or a variable's upper-bound row,
// and a structural, slack or artificial column, each named by the
// variable or constraint it stands for. A basis lives in memory only (a
// core.Checkpoint carries one from fold to fold), so no identity is ever
// rendered as a string.
//
// Because the SherLock encodings grow incrementally (each Perturber round
// mostly appends windows, i.e. new rows and columns, to the previous
// round's program), most of a carried basis maps straight onto the next
// problem: warmIndex resolves the identities once per solve against the
// reduced problem, applyWarm gives every uncovered row of a component a
// slack, singleton or surplus column, and the result is refactorized from
// the *current* problem data (lu.go).
//
// Refactorizing — rather than carrying an inverse — is what makes the warm
// start robust: coefficient changes, right-hand-side changes, renamed or
// retired rows all resolve to "whatever the names still mean here", and
// the factorization is exact for the problem actually being solved. There
// is one fallback: a mapped basis that cannot be completed, is singular
// against the current data, or is primal infeasible there (the appended
// rows cut the carried vertex off) restarts cold.
package lp

// idKind says what a row or column identity names.
type idKind uint8

const (
	idRow     idKind = iota // constraint row name
	idUB                    // upper-bound row of variable name
	idVar                   // structural column of variable name
	idSlack                 // slack/surplus column of constraint row name
	idSlackUB               // slack column of variable name's upper-bound row
	idArt                   // artificial column of constraint row name
	idArtUB                 // artificial column of variable name's upper-bound row
)

// ident identifies a standard-form row or column across problems by what
// it stands for: its kind and the variable or constraint name.
type ident struct {
	kind idKind
	name string
}

// slackOf and artOf name the slack and artificial columns of a row.
func slackOf(row ident) ident {
	if row.kind == idUB {
		return ident{idSlackUB, row.name}
	}
	return ident{idSlack, row.name}
}

func artOf(row ident) ident {
	if row.kind == idUB {
		return ident{idArtUB, row.name}
	}
	return ident{idArt, row.name}
}

// Basis is the warm-start state of a previous Solve, opaque to callers. It
// is immutable once returned and safe to share across goroutines; applying
// it to an unrelated problem is harmless (the solve falls back to a cold
// start).
type Basis struct {
	rows []ident // row identities, in the solved problem's row order
	bcol []ident // basic column identity per row position
}

// Size returns the number of rows the basis covers.
func (b *Basis) Size() int {
	if b == nil {
		return 0
	}
	return len(b.rows)
}

// Warm targets: what warmIndex resolved a reduced-problem row's carried
// basic column to.
const (
	warmNone  = iota // row not covered by the basis
	warmLost         // covered, but its column does not exist here or is an artificial
	warmVar          // structural column of variable ref
	warmSlack        // slack column of row ref
)

// warmCol is one resolved carried column. Row refs are constraint indices
// (≥ 0) or −(v+1) for variable v's upper-bound row.
type warmCol struct {
	kind int8
	ref  int32
}

// warmIndex is a carried basis resolved against one reduced problem: the
// carried basic column of every constraint row and every upper-bound row.
// It is built once per solve and read by every component's applyWarm.
type warmIndex struct {
	cons []warmCol // per constraint
	ub   []warmCol // per variable: its upper-bound row
}

// at returns the resolved column of row ref.
func (w *warmIndex) at(ref int32) warmCol {
	if ref >= 0 {
		return w.cons[ref]
	}
	return w.ub[-ref-1]
}

// newWarmIndex resolves b against p, in ws, in one pass over p's rows
// and variables and one over the basis. Identities are assumed unique, as
// the encoders keep them; duplicates resolve first-wins.
func (ws *workspace) newWarmIndex(p *Problem, b *Basis) *warmIndex {
	if b.Size() == 0 {
		return nil
	}
	claim := func(m map[string]int32, name string, ref int32) {
		if _, dup := m[name]; !dup {
			m[name] = ref
		}
	}
	vars := emptyMap(&ws.vars, len(p.names))
	for v, name := range p.names {
		claim(vars, name, int32(v))
	}
	rows := emptyMap(&ws.rows, len(p.constraints))
	for ri := range p.constraints {
		claim(rows, p.constraints[ri].name, int32(ri))
	}
	// rowRef resolves a row identity to a row ref.
	rowRef := func(kind idKind, name string) (int32, bool) {
		if kind == idRow {
			ref, ok := rows[name]
			return ref, ok
		}
		if v, ok := vars[name]; ok && p.upper[v] < infUB {
			return -v - 1, true
		}
		return 0, false
	}
	w := &ws.warm
	zeroed(&w.cons, len(p.constraints))
	zeroed(&w.ub, len(p.names))
	for k, row := range b.rows {
		if row.kind != idRow && row.kind != idUB {
			continue
		}
		ref, ok := rowRef(row.kind, row.name)
		if !ok {
			continue
		}
		slot := &w.cons[max(ref, 0)]
		if ref < 0 {
			slot = &w.ub[-ref-1]
		}
		if slot.kind != warmNone {
			continue // first entry for a row wins
		}
		col := b.bcol[k]
		res := warmCol{kind: warmLost}
		switch col.kind {
		case idVar:
			if v, ok := vars[col.name]; ok {
				res = warmCol{warmVar, v}
			}
		case idSlack, idSlackUB:
			kind := idRow
			if col.kind == idSlackUB {
				kind = idUB
			}
			if ref, ok := rowRef(kind, col.name); ok {
				res = warmCol{warmSlack, ref}
			}
		}
		*slot = res
	}
	return w
}

// applyWarm installs the carried basis — resolved by newWarmIndex — as
// this component's starting basis. Rows re-enter on their carried basic
// column when that column belongs to this component, exists here and is
// unclaimed; rows not covered — newly appended ones — get the first
// available of their LE slack, positive singleton and GE surplus. A
// carried artificial is not re-entered, and a row with none of the three
// fails the mapping. The assembled basis is then refactorized against the
// current problem data.
//
// Reports whether the warm basis was installed; on false the caller must
// reset and install the crash basis. The receiver must be freshly reset
// and the component must have rows.
func (r *revised) applyWarm(w *warmIndex, d *decomposition) bool {
	sf := r.sf
	m := sf.m
	basis, inBasis := r.basis, r.inBasis
	for i := range basis {
		basis[i] = -1
	}
	mapped := 0
	for i := 0; i < m; i++ {
		wc := w.at(sf.rowRef[i])
		j := -1
		switch wc.kind {
		case warmVar:
			if d.compOf[wc.ref] == sf.comp {
				j = int(d.local[wc.ref])
			}
		case warmSlack:
			if li := d.rowAt(wc.ref, sf.comp); li >= 0 {
				j = int(sf.slackCol[li])
			}
		}
		if j < 0 || inBasis[j] {
			continue // not covered, column vanished, or claimed by an earlier row
		}
		basis[i] = j
		inBasis[j] = true
		mapped++
	}
	if mapped == 0 {
		return false
	}

	// Complete the basis on the uncovered rows. Preference order: LE slack,
	// positive structural singleton (the ε variables — lets appended
	// Mostly-Protected rows start on their natural column), then GE surplus
	// (possibly at a negative value, which sends the solve cold). Everything
	// here is a deterministic function of the problem and the carried
	// identities.
	for i := 0; i < m; i++ {
		if basis[i] >= 0 {
			continue
		}
		col := -1
		if c := int(sf.slackCol[i]); c >= 0 && sf.slackSign[i] > 0 && !inBasis[c] {
			col = c
		}
		if col < 0 {
			if c := int(sf.posSingleton[i]); c >= 0 && !inBasis[c] {
				col = c
			}
		}
		if col < 0 {
			if c := int(sf.slackCol[i]); c >= 0 && !inBasis[c] {
				col = c
			}
		}
		if col < 0 {
			return false
		}
		basis[i] = col
		inBasis[col] = true
	}

	if !r.factorize() {
		return false // singular against the current data: cold start
	}
	r.etas.reset()
	r.computeXB()
	return true
}
