// Package apps defines the eight benchmark applications of the SherLock
// paper (Table 1) as synthetic prog.Programs, and resolves the application
// names every app-accepting entry point (CLI verbs, server jobs, static
// reports) takes: the built-ins and the generator's gen: names. Each built-in
// application reproduces the synchronization idioms the paper reports
// inferring from its namesake (Tables 8 and 9), carries the paper's
// inventory metadata, and is annotated with ground truth — the role the
// authors' manual inspection plays in the original evaluation.
//
// The original applications are C# codebases run under Mono.Cecil
// instrumentation; these are behavioural equivalents at virtual-time scale
// (see DESIGN.md for the substitution argument). Test counts are scaled
// down: each synthetic test is a concurrency-relevant scenario, where the
// originals also carry hundreds of sequential tests that contribute no
// windows.
package apps

import (
	"fmt"
	"sync"

	"sherlock/internal/gen"
	"sherlock/internal/prog"
)

var (
	once     sync.Once
	registry []*prog.Program
	byName   map[string]*prog.Program
)

func build() {
	registry = []*prog.Program{
		App1(), App2(), App3(), App4(), App5(), App6(), App7(), App8(),
	}
	byName = map[string]*prog.Program{}
	for _, p := range registry {
		p.MustFinalize()
		byName[p.Name] = p
	}
}

// All returns the eight built-in applications, App-1 through App-8,
// finalized. The returned programs are shared; callers must not mutate
// them. (Generated programs are addressable via ByName and enumerable via
// RegistryNames.)
func All() []*prog.Program {
	once.Do(build)
	return registry
}

// ByName resolves an application name: the built-ins ("App-1".."App-8")
// and generated apps ("gen:<seed>[,profile=...][,size=...]"). Every call
// with the same name returns the same finalized, shared program.
func ByName(name string) (*prog.Program, error) {
	once.Do(build)
	if p, ok := byName[name]; ok {
		return p, nil
	}
	if gen.IsName(name) {
		return gen.FromName(name)
	}
	return nil, fmt.Errorf("apps: unknown application %q (want App-1..App-8 or gen:<seed>[,profile=...][,size=...])", name)
}

// Names returns the built-in application ids in order.
func Names() []string {
	once.Do(build)
	out := make([]string, len(registry))
	for i, p := range registry {
		out[i] = p.Name
	}
	return out
}

// RegistryNames enumerates every program registry-wide sweeps such as
// `sherlock static -all` iterate: the built-ins followed by the
// generator's per-profile samples.
func RegistryNames() []string {
	return append(Names(), gen.SampleNames()...)
}
