package solver

import "sherlock/internal/trace"

// Priors are soft per-role beliefs about which candidate operations are
// synchronization, fed into the objective as a discount on the
// Syncs-are-Rare penalty (Eq. 3–4): a candidate believed to be an acquire
// with probability p pays (1 − PriorWeight·p) of its usual rareness cost for
// that role. The hypothesis stays active — priors tilt it, they never
// override window evidence, and a zero prior leaves the cost untouched.
//
// The producer is core.Posterior.Priors, which recycles a previous
// campaign's solved posteriors (the refine mode). Consumers set them for
// the first solve of a campaign only: once dynamic windows accumulate, the
// evidence supersedes the prior.
type Priors struct {
	// Acquires / Releases map candidate keys to belief in [0, 1] that the
	// key serves that role. Missing keys mean zero belief.
	Acquires map[trace.Key]float64
	Releases map[trace.Key]float64
}

// PriorWeight caps the discount a full-confidence prior earns: strong
// enough to steer tie-breaks and speed convergence, weak enough that one
// window of contrary dynamic evidence outvotes a wrong prior. Keeping it
// well below 1 bounds how far a wrong prior can tilt the objective: even
// at belief 1 the rareness cost only shrinks by PriorWeight, it never
// reaches zero.
const PriorWeight = 0.4

// discount returns the multiplicative rareness-cost factor for belief b,
// clamping stray inputs into [0, 1] so a malformed prior can never turn a
// penalty into a reward.
func (p *Priors) discount(b float64) float64 {
	if b <= 0 {
		return 1
	}
	if b > 1 {
		b = 1
	}
	return 1 - PriorWeight*b
}

// SetPriors installs (or, with nil, removes) objective priors for
// subsequent solves. The encoder's window/key caches are unaffected —
// priors only change objective coefficients — so flipping priors between
// rounds composes with incremental encoding and basis carrying: the primal
// simplex re-optimizes the revised objective from the prior basis, or the
// LP falls back to a cold solve, either way landing on the new optimum.
func (e *Encoder) SetPriors(p *Priors) { e.priors = p }
