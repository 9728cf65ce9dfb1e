package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobSpec drives arbitrary POST /v1/jobs bodies through the
// submission path — decode, normalize, validate, effective-config
// validation — and, for every accepted spec, through the proxy hop:
// cluster.remoteExecute sends json.Marshal of the normalized spec, and the
// owner decodes and normalizes it again. The owner refuses a result whose
// key differs from the entry node's, so the re-decoded spec must hash to
// the identical content key.
func FuzzJobSpec(f *testing.F) {
	for _, body := range []string{
		// TestModeSpecKeyCompat rows, in both spellings.
		`{"app":"App-1"}`,
		`{"mode":"app","target":"App-1"}`,
		`{"app":"gen:42,profile=go"}`,
		`{"mode":"app","target":"gen:42,profile=go"}`,
		`{"static_app":"App-2"}`,
		`{"mode":"static","target":"App-2"}`,
		`{"watch_app":"gen:7"}`,
		`{"mode":"watch","target":"gen:7"}`,
		`{"trace_keys":["k1","k2"]}`,
		`{"mode":"trace_keys","target":["k1","k2"]}`,
		`{"app":"App-1","rounds":5,"seed":9}`,
		`{"mode":"app","target":"App-1","rounds":5,"seed":9}`,
		// TestModeSpecErrors rows.
		`{"mode":"campaign","target":"App-1"}`,
		`{"target":"App-1"}`,
		`{"mode":"app"}`,
		`{"mode":"app","target":""}`,
		`{"mode":"app","target":["App-1"]}`,
		`{"mode":"traces","target":"doc"}`,
		`{"mode":"trace_keys","target":[]}`,
		`{"mode":"trace_keys","target":["k1",7]}`,
		`{"mode":"app","target":"App-1","app":"App-2"}`,
		`{"mode":"hybrid","target":"App-3"}`,
		`{"app":"App-3","hybrid":true}`,
		`{"mode":"traces"}`,
		`{"traces":["doc-one","doc-two"]}`,
		`{"app":"App-1","traces":["doc-one"]}`,
		// Every override field.
		`{"app":"App-2","lambda":0.7,"near":9000,"max_steps":1234,"seed":-3}`,
	} {
		f.Add([]byte(body))
	}
	base := DefaultConfig().Inference
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, ok := acceptSpec(data)
		if !ok || spec.effectiveConfig(base).Validate() != nil {
			return
		}
		key := JobKey(spec, spec.effectiveConfig(base))

		wire, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal accepted spec %+v: %v", spec, err)
		}
		again, ok := acceptSpec(wire)
		if !ok {
			t.Fatalf("re-decoded spec rejected\ninput: %q\nwire:  %s", data, wire)
		}
		if !reflect.DeepEqual(nilEmpty(again), nilEmpty(spec)) {
			t.Fatalf("spec changed across the wire\nbefore: %+v\nafter:  %+v", spec, again)
		}
		if got := JobKey(again, again.effectiveConfig(base)); got != key {
			t.Fatalf("key changed across the wire: %s -> %s\ninput: %q\nwire:  %s", key, got, data, wire)
		}
	})
}

// acceptSpec runs a request body through handleSubmit's spec checks:
// decode as decodeRequest does, then normalize and validate.
func acceptSpec(data []byte) (JobSpec, bool) {
	var spec JobSpec
	if json.NewDecoder(bytes.NewReader(data)).Decode(&spec) != nil {
		return spec, false
	}
	if spec.normalize() != nil || spec.validate() != nil {
		return spec, false
	}
	return spec, true
}

// nilEmpty maps an empty key list to nil: omitempty drops an empty list on
// the wire, and both spellings mean "absent" to validate and JobKey.
func nilEmpty(s JobSpec) JobSpec {
	if len(s.TraceKeys) == 0 {
		s.TraceKeys = nil
	}
	return s
}
