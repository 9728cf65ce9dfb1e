package server

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sherlock/internal/core"
)

// TestModeSpecKeyCompat: every legacy one-field-per-kind spec and its
// unified (mode, target) spelling must normalize to the same spec and
// therefore the same content key — a mode-shaped resubmission of a
// legacy job is a cache hit, never a recompute.
func TestModeSpecKeyCompat(t *testing.T) {
	base := core.DefaultConfig()
	cases := []struct {
		name   string
		legacy JobSpec
		mode   JobSpec
	}{
		{
			name:   "app",
			legacy: JobSpec{App: "App-1"},
			mode:   JobSpec{Mode: "app", Target: "App-1"},
		},
		{
			name:   "app generated",
			legacy: JobSpec{App: "gen:42,profile=go"},
			mode:   JobSpec{Mode: "app", Target: "gen:42,profile=go"},
		},
		{
			name:   "static",
			legacy: JobSpec{StaticApp: "App-2"},
			mode:   JobSpec{Mode: "static", Target: "App-2"},
		},
		{
			name:   "watch",
			legacy: JobSpec{WatchApp: "gen:7"},
			mode:   JobSpec{Mode: "watch", Target: "gen:7"},
		},
		{
			name:   "trace keys",
			legacy: JobSpec{TraceKeys: []string{"k1", "k2"}},
			mode:   JobSpec{Mode: "trace_keys", Target: []any{"k1", "k2"}},
		},
		{
			name:   "app with overrides",
			legacy: JobSpec{App: "App-1", Rounds: 5, Seed: 9},
			mode:   JobSpec{Mode: "app", Target: "App-1", Rounds: 5, Seed: 9},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			legacy, mode := c.legacy, c.mode
			if err := legacy.normalize(); err != nil {
				t.Fatalf("legacy normalize: %v", err)
			}
			if err := mode.normalize(); err != nil {
				t.Fatalf("mode normalize: %v", err)
			}
			if !reflect.DeepEqual(legacy, mode) {
				t.Fatalf("normalized specs differ:\nlegacy: %+v\nmode:   %+v", legacy, mode)
			}
			lk := JobKey(legacy, legacy.effectiveConfig(base))
			mk := JobKey(mode, mode.effectiveConfig(base))
			if lk != mk {
				t.Fatalf("keys differ: legacy %s vs mode %s", lk, mk)
			}
		})
	}
}

// TestModeSpecErrors covers the validation paths of the unified shape and
// the removed hybrid and inline-traces modes, from the wire body through
// normalize. A row with want set must fail with an error mentioning it.
func TestModeSpecErrors(t *testing.T) {
	const removedTracesHint = `POST /v1/traces and submit the returned keys as "trace_keys"`
	for name, c := range map[string]struct{ body, want string }{
		"unknown mode":        {body: `{"mode":"campaign","target":"App-1"}`},
		"target without mode": {body: `{"target":"App-1"}`},
		"mode without target": {body: `{"mode":"app"}`},
		"empty string target": {body: `{"mode":"app","target":""}`},
		"array for app":       {body: `{"mode":"app","target":["App-1"]}`},
		"string for traces":   {body: `{"mode":"traces","target":"doc"}`},
		"empty array":         {body: `{"mode":"trace_keys","target":[]}`},
		"non-string element":  {body: `{"mode":"trace_keys","target":["k1",7]}`},
		"mode plus legacy":    {body: `{"mode":"app","target":"App-1","app":"App-2"}`},
		"hybrid mode":         {body: `{"mode":"hybrid","target":"App-3"}`, want: "hybrid mode was removed"},
		"legacy hybrid flag":  {body: `{"app":"App-3","hybrid":true}`, want: "hybrid mode was removed"},
		"traces mode":         {body: `{"mode":"traces"}`, want: removedTracesHint},
		"legacy traces list":  {body: `{"traces":["doc-one"]}`, want: removedTracesHint},
		"app plus traces":     {body: `{"app":"App-1","traces":["doc-one"]}`, want: removedTracesHint},
	} {
		t.Run(name, func(t *testing.T) {
			var spec JobSpec
			err := json.Unmarshal([]byte(c.body), &spec)
			if err == nil {
				err = spec.normalize()
			}
			if err == nil {
				t.Fatalf("%s should fail", c.body)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s: error %q does not mention %q", c.body, err, c.want)
			}
		})
	}
}

// TestJobKeyStepDist: the scheduler step distribution joins the key only
// when it departs from the uniform default, so pre-dist keys (and their
// cache entries) stay addressable.
func TestJobKeyStepDist(t *testing.T) {
	spec := JobSpec{App: "App-1"}
	base := core.DefaultConfig()
	ref := JobKey(spec, spec.effectiveConfig(base))

	uniform := base
	uniform.StepDist = "uniform"
	if got := JobKey(spec, spec.effectiveConfig(uniform)); got != ref {
		t.Error("explicit uniform dist should hash like the default")
	}
	zipf := base
	zipf.StepDist = "zipf"
	zk := JobKey(spec, spec.effectiveConfig(zipf))
	if zk == ref {
		t.Error("zipf dist should change the key")
	}
	bursty := base
	bursty.StepDist = "bursty"
	if bk := JobKey(spec, spec.effectiveConfig(bursty)); bk == ref || bk == zk {
		t.Error("bursty dist should get its own key")
	}
}
