// Trace-store benchmark: encode the full 8-app benchmark corpus (every
// test of every application, one run each) in both serializations and
// measure size and codec throughput, so the binary format's size win
// over JSON lines and its decode speed are tracked across commits.
package main

import (
	"bytes"
	"fmt"
	"time"

	"sherlock/internal/apps"
	"sherlock/internal/sched"
	"sherlock/internal/store"
	"sherlock/internal/trace"
)

// storeResult is the BENCH_store.json schema. Codec times are best-of-reps
// wall clock for one pass over the whole corpus, in nanoseconds.
type storeResult struct {
	Traces        int     `json:"traces"`
	Events        int     `json:"events"`
	JSONBytes     int     `json:"json_bytes"`
	BinaryBytes   int     `json:"binary_bytes"`
	SizeRatio     float64 `json:"size_ratio"`      // json_bytes / binary_bytes
	BytesPerEvent float64 `json:"bytes_per_event"` // binary
	EncodeNs      int64   `json:"encode_ns"`
	DecodeNs      int64   `json:"decode_ns"`
	JSONDecodeNs  int64   `json:"json_decode_ns"`
	EncodeMBs     float64 `json:"encode_mb_per_sec"` // binary bytes produced / s
	DecodeMBs     float64 `json:"decode_mb_per_sec"` // binary bytes consumed / s
	DecodeSpeedup float64 `json:"decode_speedup"`    // json_decode_ns / decode_ns
	// EncodeEventsPerSec is encode throughput in events, which unlike
	// encode_mb_per_sec (compressed bytes out) cannot rise by compressing
	// less.
	EncodeEventsPerSec float64 `json:"encode_events_per_sec"`
}

const storeReps = 5 // codec passes per serialization; the best is reported

func (r storeResult) gate() error {
	if r.EncodeEventsPerSec < storeMinEncodeRate {
		return fmt.Errorf("binary encode %.0f events/s below the gate floor %d", r.EncodeEventsPerSec, storeMinEncodeRate)
	}
	return nil
}

// benchStore captures the whole benchmark corpus once, then times the
// binary codec against the JSON-lines one over identical traces.
func benchStore() (storeResult, error) {
	var res storeResult
	var traces []*trace.Trace
	for _, app := range apps.All() {
		for i, test := range app.Tests {
			run, err := sched.Run(app, test, sched.Options{Seed: int64(i) + 1})
			if err != nil {
				return res, err
			}
			traces = append(traces, run.Trace)
		}
	}

	res.Traces = len(traces)
	var jsonDocs, binDocs [][]byte
	for _, tr := range traces {
		res.Events += len(tr.Events)
		var jb bytes.Buffer
		if err := tr.Write(&jb); err != nil {
			return res, err
		}
		jsonDocs = append(jsonDocs, jb.Bytes())
		res.JSONBytes += jb.Len()
		bb, err := store.EncodeTrace(tr)
		if err != nil {
			return res, err
		}
		binDocs = append(binDocs, bb)
		res.BinaryBytes += len(bb)
	}
	res.SizeRatio = float64(res.JSONBytes) / float64(res.BinaryBytes)
	res.BytesPerEvent = float64(res.BinaryBytes) / float64(res.Events)

	for rep := 0; rep < storeReps; rep++ {
		t0 := time.Now()
		for _, tr := range traces {
			if _, err := store.EncodeTrace(tr); err != nil {
				return res, err
			}
		}
		keepMin(&res.EncodeNs, time.Since(t0))

		t0 = time.Now()
		for _, bb := range binDocs {
			if _, err := store.DecodeTrace(bb); err != nil {
				return res, err
			}
		}
		keepMin(&res.DecodeNs, time.Since(t0))

		t0 = time.Now()
		for _, jb := range jsonDocs {
			if _, err := trace.Read(bytes.NewReader(jb)); err != nil {
				return res, err
			}
		}
		keepMin(&res.JSONDecodeNs, time.Since(t0))
	}
	res.EncodeMBs = float64(res.BinaryBytes) / 1e6 / (float64(res.EncodeNs) / 1e9)
	res.DecodeMBs = float64(res.BinaryBytes) / 1e6 / (float64(res.DecodeNs) / 1e9)
	res.DecodeSpeedup = float64(res.JSONDecodeNs) / float64(res.DecodeNs)
	res.EncodeEventsPerSec = float64(res.Events) / (float64(res.EncodeNs) / 1e9)

	fmt.Printf("store: %d traces, %d events: binary %d B vs JSON %d B (%.2fx, %.1f B/event); encode %.0f events/s, %.1f MB/s; decode %.1f MB/s, %.2fx faster than JSON\n",
		res.Traces, res.Events, res.BinaryBytes, res.JSONBytes,
		res.SizeRatio, res.BytesPerEvent, res.EncodeEventsPerSec, res.EncodeMBs,
		res.DecodeMBs, res.DecodeSpeedup)
	return res, nil
}
