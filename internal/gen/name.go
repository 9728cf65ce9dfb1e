// Generated-app naming: the gen: namespace apps.ByName resolves.
//
// A generated application is addressed by a name of the form
//
//	gen:<seed>[,profile=<p>][,size=<n>]
//
// where <seed> is a non-negative decimal int64, <p> selects the idiom
// family (mixed, classic, go, racy) and <n> is the number of idiom
// instances composed into the program. Parse canonicalizes: omitted
// options take their defaults, and Spec.Name() renders the canonical
// form (defaults elided), so "gen:42,profile=mixed" and "gen:42" denote
// the same program.
package gen

import (
	"fmt"
	"strconv"
	"strings"
)

const (
	// Prefix starts every generated-application name.
	Prefix = "gen:"

	// Version is the generator version baked into every seed derivation.
	// Same seed + same version => byte-identical program and ground
	// truth; bump it whenever a template or the composition rule
	// changes, so stale cluster caches miss instead of serving programs
	// from an older generator.
	Version = "sherlock-gen-v1"

	// DefaultProfile and DefaultSize apply when the name carries no
	// profile=/size= option.
	DefaultProfile = ProfileMixed
	DefaultSize    = 4

	// MaxSize bounds size= so a single name cannot request an
	// arbitrarily large program.
	MaxSize = 16
)

// Idiom-family profiles.
const (
	ProfileMixed   = "mixed"   // every template, classic and Go-native
	ProfileClassic = "classic" // the paper's C#-idiom templates only
	ProfileGo      = "go"      // Go-native: channel, WaitGroup, Once, RWMutex
	ProfileRacy    = "racy"    // race-heavy mix for detector evaluation
)

// Profiles lists the valid profile= values.
var Profiles = []string{ProfileMixed, ProfileClassic, ProfileGo, ProfileRacy}

// Spec is a parsed generated-app name.
type Spec struct {
	Seed    int64
	Profile string
	Size    int
}

// IsName reports whether name is in the generator's namespace.
func IsName(name string) bool { return strings.HasPrefix(name, Prefix) }

// Parse decodes a gen: name into a Spec, applying defaults for omitted
// options and rejecting malformed or out-of-range values.
func Parse(name string) (Spec, error) {
	if !IsName(name) {
		return Spec{}, fmt.Errorf("gen: %q is not a generated-app name (want gen:<seed>[,profile=<p>][,size=<n>])", name)
	}
	parts := strings.Split(name[len(Prefix):], ",")
	seed, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil || seed < 0 {
		return Spec{}, fmt.Errorf("gen: bad seed in %q (want a non-negative decimal integer)", name)
	}
	sp := Spec{Seed: seed, Profile: DefaultProfile, Size: DefaultSize}
	for _, opt := range parts[1:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return Spec{}, fmt.Errorf("gen: bad option %q in %q (want key=value)", opt, name)
		}
		switch k {
		case "profile":
			if !validProfile(v) {
				return Spec{}, fmt.Errorf("gen: unknown profile %q in %q (want one of %s)", v, name, strings.Join(Profiles, ", "))
			}
			sp.Profile = v
		case "size":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 || n > MaxSize {
				return Spec{}, fmt.Errorf("gen: bad size %q in %q (want 1..%d)", v, name, MaxSize)
			}
			sp.Size = n
		default:
			return Spec{}, fmt.Errorf("gen: unknown option %q in %q (want profile= or size=)", k, name)
		}
	}
	return sp, nil
}

// Name renders the canonical name: defaults elided, options in fixed
// order, so equal Specs render equal strings.
func (s Spec) Name() string {
	var b strings.Builder
	b.WriteString(Prefix)
	b.WriteString(strconv.FormatInt(s.Seed, 10))
	if s.Profile != DefaultProfile {
		b.WriteString(",profile=")
		b.WriteString(s.Profile)
	}
	if s.Size != DefaultSize {
		b.WriteString(",size=")
		b.WriteString(strconv.Itoa(s.Size))
	}
	return b.String()
}

func validProfile(p string) bool {
	for _, q := range Profiles {
		if p == q {
			return true
		}
	}
	return false
}
