// Basis serialization. A Basis round-trips through JSON so checkpoints
// (internal/core) can persist a solve's warm-start state into the corpus
// store and resume from it in another process.
//
// A basis is pure identities — (row, basic column) pairs — so the round
// trip is trivially exact: there is no numerical state to preserve bit
// for bit. This file is the only place identities become strings: rows
// render as the constraint name or "ub(<variable>)", columns as
// "v:<variable>", "s:<row>" or "a:<row>". Parsing is the exact inverse
// of rendering, so a decoded basis re-encodes to the bytes it came from,
// and a string no solve produces decodes to an identity that matches
// nothing. A loaded basis is re-factorized against the problem it is
// applied to (a documented cold re-factorization on load), which is the
// same thing applyWarm does to an in-memory basis, so resuming from a
// stored checkpoint is indistinguishable from an uninterrupted in-memory
// sequence.
//
// Documents written by the pre-LU format carried extra numerical fields
// (rhs, loc, brow, bval, binv, xb); UnmarshalJSON ignores them, so old
// checkpoints still load — they warm-start exactly as well as new ones,
// because the numerical payload was only ever a cache of what
// re-factorization recomputes.
package lp

import (
	"encoding/json"
	"fmt"
	"strings"
)

// basisJSON is the exported shadow of Basis's unexported fields.
type basisJSON struct {
	Rows []string `json:"rows"`
	Bcol []string `json:"bcol"`
}

// render returns an identity's document string.
func (id ident) render() string {
	switch id.kind {
	case idUB:
		return "ub(" + id.name + ")"
	case idVar:
		return "v:" + id.name
	case idSlack:
		return "s:" + id.name
	case idSlackUB:
		return "s:ub(" + id.name + ")"
	case idArt:
		return "a:" + id.name
	case idArtUB:
		return "a:ub(" + id.name + ")"
	}
	return id.name // idRow, idOther
}

// parseCol is the inverse of render on column strings.
func parseCol(s string) ident {
	if name, ok := strings.CutPrefix(s, "v:"); ok {
		return ident{idVar, name}
	}
	if name, ok := strings.CutPrefix(s, "s:"); ok {
		return slackOf(rowIdent(name))
	}
	if name, ok := strings.CutPrefix(s, "a:"); ok {
		return artOf(rowIdent(name))
	}
	return ident{idOther, s}
}

// renderAll renders ids, keeping nil as nil so the document keeps its
// null/[] distinction.
func renderAll(ids []ident) []string {
	if ids == nil {
		return nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.render()
	}
	return out
}

// MarshalJSON encodes the basis for persistence.
func (b *Basis) MarshalJSON() ([]byte, error) {
	return json.Marshal(basisJSON{Rows: renderAll(b.rows), Bcol: renderAll(b.bcol)})
}

// UnmarshalJSON decodes a basis produced by MarshalJSON (current or pre-LU
// format), validating the shape so a corrupt document can never misalign
// rows and basic columns inside a warm start.
func (b *Basis) UnmarshalJSON(data []byte) error {
	var s basisJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if len(s.Bcol) != len(s.Rows) {
		return fmt.Errorf("lp: basis: %q has %d entries, want %d", "bcol", len(s.Bcol), len(s.Rows))
	}
	b.rows, b.bcol = nil, nil
	if s.Rows != nil {
		b.rows = make([]ident, len(s.Rows))
		for i, r := range s.Rows {
			b.rows[i] = rowIdent(r)
		}
	}
	if s.Bcol != nil {
		b.bcol = make([]ident, len(s.Bcol))
		for i, c := range s.Bcol {
			b.bcol[i] = parseCol(c)
		}
	}
	return nil
}
