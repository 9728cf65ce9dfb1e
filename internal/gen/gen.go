// Package gen is a seeded, deterministic procedural application
// generator. It composes idiom templates — the paper's classic C#
// idioms (locks, semaphores, flags, fork-join, continuations,
// finalizers, static constructors, hidden methods, true races) and a
// Go-native family (channel send/recv as release/acquire carriers,
// WaitGroup, Once, RWMutex) — into arbitrarily many prog.Programs,
// each annotated with machine-readable ground truth (expected sync
// pairs, expected racy operations, expected instrumentation-error
// sites), so inference precision/recall is scoreable at any N without
// human labels.
//
// Determinism contract: the same canonical name (seed, profile, size)
// under the same generator Version produces a byte-identical program
// and ground truth, and therefore the same
// static.ProgramHash — generated apps are content-addressable and
// cacheable cluster-wide exactly like the built-ins.
package gen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"sherlock/internal/prog"
	"sherlock/internal/trace"
)

// FromName parses name, builds (or returns the cached) program. The
// cache is keyed by the canonical name, so alias spellings of the same
// spec ("gen:42,profile=mixed" vs "gen:42") resolve to the same
// finalized *prog.Program — pointer-identical, exactly like the
// built-in registry.
func FromName(name string) (*prog.Program, error) {
	spec, err := Parse(name)
	if err != nil {
		return nil, err
	}
	canon := spec.Name()
	if p, ok := cache.Load(canon); ok {
		return p.(*prog.Program), nil
	}
	p, _ := cache.LoadOrStore(canon, New(spec))
	return p.(*prog.Program), nil
}

var cache sync.Map // canonical name -> *prog.Program

// SampleNames returns a small deterministic showcase of generated apps,
// one per profile — this is what apps.RegistryNames enumerates
// (e.g. for `sherlock static -all`). Arbitrary other seeds remain
// addressable by explicit name.
func SampleNames() []string {
	return []string{
		"gen:1",
		"gen:2,profile=go",
		"gen:3,profile=classic",
		"gen:4,profile=racy",
	}
}

// New builds a fresh finalized program for spec, bypassing the cache
// (determinism tests rebuild repeatedly and compare fingerprints).
func New(spec Spec) *prog.Program {
	if spec.Profile == "" {
		spec.Profile = DefaultProfile
	}
	if spec.Size == 0 {
		spec.Size = DefaultSize
	}
	name := spec.Name()
	p := prog.New(name, fmt.Sprintf("Generated(%s/%s, %d idioms, seed %d)", Version, spec.Profile, spec.Size, spec.Seed))
	rng := rand.New(rand.NewSource(deriveSeed(spec)))
	b := &builder{p: p, rng: rng}
	pool := pools[spec.Profile]
	for i := 0; i < spec.Size; i++ {
		t := pool[rng.Intn(len(pool))]
		b.idx = i
		b.cls = fmt.Sprintf("Gen.I%02d.%s", i, t.tag)
		t.build(b)
	}
	// Synthetic inventory metadata (Table 1 analogue), derived from the
	// spec alone so it never perturbs the rng stream.
	p.LoC = 180 * len(p.Methods)
	p.Stars = int(spec.Seed % 1000)
	p.PaperTests = len(p.Tests)
	p.MustFinalize()
	return p
}

// deriveSeed folds the generator version, profile and size into the
// user seed so any change to the contract changes every derived rng
// stream (and therefore every fingerprint and program hash).
func deriveSeed(spec Spec) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d", Version, spec.Profile, spec.Size)
	return int64(h.Sum64() ^ (uint64(spec.Seed)+1)*0x9E3779B97F4A7C15)
}

// ---------------------------------------------------------------------------
// Builder: per-instance naming and rng plumbing shared by all templates
// ---------------------------------------------------------------------------

type builder struct {
	p   *prog.Program
	rng *rand.Rand
	idx int    // idiom instance index within the program
	cls string // instance class prefix, e.g. "Gen.I03.Lock"
}

// template is one idiom generator: build must add methods, at least one
// test with conflicting heap accesses, and the instance's ground truth.
type template struct {
	tag   string
	build func(b *builder)
}

// m qualifies member under the instance class.
func (b *builder) m(member string) string { return b.cls + "::" + member }

// res names a per-instance scheduler resource (lock, semaphore, queue).
func (b *builder) res(tag string) string { return fmt.Sprintf("i%02d-%s", b.idx, tag) }

// slot names the per-instance receiver object.
func (b *builder) slot() string { return fmt.Sprintf("o%02d", b.idx) }

// dur draws a uniform virtual-ns duration in [lo, hi].
func (b *builder) dur(lo, hi int64) int64 { return lo + b.rng.Int63n(hi-lo+1) }

// Truth shorthands.
func (b *builder) sync(k trace.Key, r trace.Role)     { b.p.Truth.Sync(k, r) }
func (b *builder) alt(k trace.Key, r trace.Role)      { b.p.Truth.SyncAlt(k, r) }
func (b *builder) cat(k trace.Key, c prog.FPCategory) { b.p.Truth.Category[k] = c }
func (b *builder) race(field string)                  { b.p.Truth.Race(field) }
func (b *builder) hidden(method string)               { b.p.Truth.HiddenMethods[method] = true }
func (b *builder) altPair(w, r trace.Key)             { b.alt(w, trace.RoleRelease); b.alt(r, trace.RoleAcquire) }

// forked records the boundary alternates of forked methods: a forked
// method's Begin acquires the fork edge and its End releases the join
// edge, so either is correct-if-inferred without being required.
func (b *builder) forked(methods ...string) {
	for _, m := range methods {
		b.alt(prog.BK(m), trace.RoleAcquire)
		b.alt(prog.EK(m), trace.RoleRelease)
	}
}

// forkJoinAlt records the fork/join edge alternates for the API pair a
// test actually used.
func (b *builder) forkJoinAlt(f prog.ForkAPI, j prog.JoinAPI) {
	b.alt(prog.EK(f.APIName()), trace.RoleRelease)
	b.alt(prog.BK(j.APIName()), trace.RoleAcquire)
}

// pools maps each profile to its weighted template list (weight by
// repetition).
var pools = map[string][]template{
	ProfileClassic: classicTemplates,
	ProfileGo:      goTemplates,
	ProfileMixed:   append(append([]template{}, classicTemplates...), goTemplates...),
	ProfileRacy: {
		tmplRace, tmplRace, tmplRace,
		tmplFlag, tmplLock,
	},
}
