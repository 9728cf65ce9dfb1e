package sched

import "testing"

// TestAddrFirstSeenOrder: addresses are handed out in first-access order,
// 8 bytes apart, one per (field, object) instance, whatever characters the
// field name holds.
func TestAddrFirstSeenOrder(t *testing.T) {
	m := &machine{fieldAddr: map[fieldKey]uint64{}, nextAddr: 0x1000}
	accesses := []struct {
		field string
		obj   uint64
		want  uint64
	}{
		{"C::f", 1, 0x1000},
		{"C::g", 1, 0x1008},
		{"C::f", 2, 0x1010},
		{"C::f", 1, 0x1000},
		{"C::f#1", 2, 0x1018},
		{"C::f", 12, 0x1020},
		{"C::g", 1, 0x1008},
	}
	for _, a := range accesses {
		if got := m.addr(a.field, a.obj); got != a.want {
			t.Errorf("addr(%q, %d) = %#x, want %#x", a.field, a.obj, got, a.want)
		}
	}
}

// TestAddrSeenPathAllocFree pins the hot path of every field access: a
// field instance already seen in the run resolves without allocating.
func TestAddrSeenPathAllocFree(t *testing.T) {
	m := &machine{fieldAddr: map[fieldKey]uint64{}, nextAddr: 0x1000}
	field := "k8s.ByteBuffer::endOfFile"
	want := m.addr(field, 42)
	allocs := testing.AllocsPerRun(1000, func() {
		if m.addr(field, 42) != want {
			t.Fatal("address of a seen field instance changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("seen-path addr allocates %.1f times per call, want 0", allocs)
	}
}
