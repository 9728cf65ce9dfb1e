package gen

import "testing"

// FuzzGenParse: Parse never panics, and a name it accepts canonicalizes
// to one that parses back to the same Spec. Seeds are the registry's
// sample names plus alias and malformed spellings.
func FuzzGenParse(f *testing.F) {
	for _, name := range SampleNames() {
		f.Add(name)
	}
	for _, name := range []string{
		"gen:42,profile=mixed,size=4", "gen:7,size=16,profile=racy", "gen:+5",
		"gen:-1", "gen:1,size=17", "gen:1,profile=nope", "gen:1,,", "App-1",
	} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		spec, err := Parse(name)
		if err != nil {
			return
		}
		again, err := Parse(spec.Name())
		if err != nil {
			t.Fatalf("Parse(%q) = %+v, but its canonical name %q fails: %v", name, spec, spec.Name(), err)
		}
		if again != spec {
			t.Fatalf("Parse(%q) = %+v, Parse(%q) = %+v", name, spec, spec.Name(), again)
		}
	})
}
