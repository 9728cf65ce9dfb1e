package window

import (
	"reflect"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/gen"
	"sherlock/internal/prog"
	"sherlock/internal/sched"
	"sherlock/internal/trace"
)

// campaignMix names the apps of the end-to-end benchmark's campaign mix:
// the eight built-ins, then gen:1..4 for every profile at sizes 4 and 16.
func campaignMix() []string {
	names := apps.Names()
	for _, profile := range gen.Profiles {
		for _, size := range []int{4, 16} {
			for k := 1; k <= 4; k++ {
				names = append(names, gen.Spec{Seed: int64(k), Profile: profile, Size: size}.Name())
			}
		}
	}
	return names
}

// releasePlan delays every true release of p, as a Perturber round does.
func releasePlan(p *prog.Program) map[trace.Key]int64 {
	plan := map[trace.Key]int64{}
	for k, role := range p.Truth.Syncs {
		if role == trace.RoleRelease {
			plan[k] = 100_000
		}
	}
	return plan
}

// TestIDPathMatchesNamePath: over every test of the campaign mix at seeds
// 1 and 2, with and without a delay plan, extraction by the scheduler's
// name IDs gives what the name-keyed entry points give: the same windows
// (keys, times, pairs and threads), the same duration samples and the
// same library APIs.
func TestIDPathMatchesNamePath(t *testing.T) {
	var windows, timed, apis int
	for _, name := range campaignMix() {
		p, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		names := p.EventNames()
		for seed := int64(1); seed <= 2; seed++ {
			for _, plan := range []map[trace.Key]int64{nil, releasePlan(p)} {
				for _, test := range p.Tests {
					opt := sched.Options{Seed: seed, Delays: plan, HiddenMethods: p.Truth.HiddenMethods}
					run, err := sched.Run(p, test, opt)
					if err != nil {
						t.Fatal(err)
					}
					tr := run.Trace
					cs := FindConflicts(tr, DefaultConfig())
					byID := BuildWindowsByID(tr, names, run.NameIDs, cs)
					if !reflect.DeepEqual(byID, BuildWindows(tr, cs)) {
						t.Fatalf("%s/%s seed %d: windows by ID differ from windows by name", name, test.Name, seed)
					}
					st := TraceStatsByID(tr, names, run.NameIDs)
					durs, libs := statsByName(st)
					wantDurs, wantLibs := TraceStats(tr)
					if !reflect.DeepEqual(durs, wantDurs) || !reflect.DeepEqual(libs, wantLibs) {
						t.Fatalf("%s/%s seed %d: statistics by ID differ from statistics by name", name, test.Name, seed)
					}
					windows += len(byID)
					timed += len(st.Durations)
					apis += len(st.LibAPIs)
					run.Recycle()
				}
			}
		}
	}
	if windows == 0 || timed == 0 || apis == 0 {
		t.Fatalf("%d windows, %d timed names, %d library APIs: the comparison proves little", windows, timed, apis)
	}
	t.Logf("compared %d windows, %d timed names and %d library APIs", windows, timed, apis)
}

// TestNameOutsideTableThroughWrapper: an uploaded trace may carry names
// its program never compiled. The name-keyed entry points intern them
// like any other: a scheduler trace with one method and one field
// renamed to names outside App-1's table gives the reference windows
// (keys by trace.EventKey) and the reference durations.
func TestNameOutsideTableThroughWrapper(t *testing.T) {
	run, names := app1Run(t)
	tr := &trace.Trace{App: run.Trace.App, Test: run.Trace.Test, Events: append([]trace.Event(nil), run.Trace.Events...)}
	const method, field = "Uploaded::Flush", "Uploaded::count"
	for _, n := range []string{method, field} {
		for id := trace.NameID(1); int(id) <= names.Len(); id++ {
			if names.Name(id) == n {
				t.Fatalf("%s is in App-1's table", n)
			}
		}
	}
	// Rename the first method called and the field of the first window's
	// first candidate access.
	cs := FindConflicts(tr, DefaultConfig())
	if len(cs) == 0 {
		t.Fatal("App-1's trace has no conflict")
	}
	var oldMethod, oldField string
	for _, e := range tr.Events {
		if oldMethod == "" && e.Kind == trace.KindBegin && !e.Lib {
			oldMethod = e.Name
		}
	}
	for _, w := range BuildWindows(tr, cs) {
		for _, e := range append(w.RelEvents, w.AcqEvents...) {
			if oldField == "" && e.Key.IsField() {
				oldField = e.Key.Name()
			}
		}
	}
	if oldMethod == "" || oldField == "" {
		t.Fatalf("no method (%q) or windowed field (%q) to rename", oldMethod, oldField)
	}
	for i := range tr.Events {
		switch e := &tr.Events[i]; e.Name {
		case oldMethod:
			e.Name = method
		case oldField:
			e.Name = field
		}
	}

	var renamed int
	for i, w := range BuildWindows(tr, cs) {
		if want := BuildWindow(tr, cs[i]); !reflect.DeepEqual(w, want) {
			t.Fatalf("conflict %d:\n got  %+v\n want %+v", i, w, want)
		}
		for _, e := range append(w.RelEvents, w.AcqEvents...) {
			if e.Key.Name() == field {
				renamed++
			}
		}
	}
	if renamed == 0 {
		t.Fatal("no window holds the renamed field")
	}
	durs, apis := TraceStats(tr)
	if !reflect.DeepEqual(durs, methodDurationsRef(tr)) || !reflect.DeepEqual(apis, libAPIsRef(tr)) {
		t.Fatal("statistics of the renamed trace differ from the references")
	}
	if len(durs[method]) == 0 {
		t.Fatalf("the renamed method %s has no duration sample", method)
	}
}
