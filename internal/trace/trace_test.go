package trace

import (
	"testing"
	"testing/quick"
)

func TestKeyRoundTrip(t *testing.T) {
	cases := []struct {
		kind Kind
		name string
	}{
		{KindRead, "k8s.ByteBuffer::endOfFile"},
		{KindWrite, "App.WorkingDays.ChristianHolidays::ascension"},
		{KindBegin, "System.Threading.Monitor::Enter"},
		{KindEnd, "Radical.Messaging.MessageBroker::SubscribeCore"},
	}
	for _, c := range cases {
		k := KeyFor(c.kind, c.name)
		if k.Kind() != c.kind {
			t.Errorf("Key %q kind = %v, want %v", k, k.Kind(), c.kind)
		}
		if k.Name() != c.name {
			t.Errorf("Key %q name = %q, want %q", k, k.Name(), c.name)
		}
	}
}

func TestKeyClassMember(t *testing.T) {
	k := KeyFor(KindBegin, "System.Threading.Monitor::Enter")
	if k.Class() != "System.Threading.Monitor" {
		t.Errorf("Class = %q", k.Class())
	}
	if k.Member() != "Enter" {
		t.Errorf("Member = %q", k.Member())
	}
	bare := KeyFor(KindBegin, "main")
	if bare.Class() != "" || bare.Member() != "main" {
		t.Errorf("bare name: class %q member %q", bare.Class(), bare.Member())
	}
}

func TestNaturalRolesAndCapabilities(t *testing.T) {
	if !AcquireCapable(KindRead) || AcquireCapable(KindWrite) {
		t.Error("acquire capability wrong for field ops")
	}
	if !ReleaseCapable(KindEnd) || ReleaseCapable(KindBegin) {
		t.Error("release capability wrong for method ops")
	}
}

func TestPairedKey(t *testing.T) {
	r := KeyFor(KindRead, "C::f")
	w := KeyFor(KindWrite, "C::f")
	if r.PairedKey() != w || w.PairedKey() != r {
		t.Errorf("field pairing broken: %q <-> %q", r.PairedKey(), w.PairedKey())
	}
	if KeyFor(KindBegin, "C::m").PairedKey() != "" {
		t.Error("method keys have no one-to-one pair")
	}
}

func TestDisplay(t *testing.T) {
	cases := map[Key]string{
		KeyFor(KindRead, "C::f"):  "Read-C::f",
		KeyFor(KindWrite, "C::f"): "Write-C::f",
		KeyFor(KindBegin, "C::m"): "C::m-Begin",
		KeyFor(KindEnd, "C::m"):   "C::m-End",
	}
	for k, want := range cases {
		if got := k.Display(); got != want {
			t.Errorf("Display(%q) = %q, want %q", k, got, want)
		}
	}
}

func TestConflictEligible(t *testing.T) {
	e := Event{Kind: KindWrite, Acc: AccWrite, Addr: 42}
	if !e.ConflictEligible() {
		t.Error("heap write with address should be conflict-eligible")
	}
	e2 := Event{Kind: KindBegin, Acc: AccNone, Addr: 42}
	if e2.ConflictEligible() {
		t.Error("method entry should not be conflict-eligible")
	}
	e3 := Event{Kind: KindBegin, Acc: AccWrite, Addr: 7, Lib: true, Unsafe: true}
	if !e3.ConflictEligible() {
		t.Error("thread-unsafe lib call should be conflict-eligible")
	}
}

func TestTraceAppend(t *testing.T) {
	var tr Trace
	tr.Append(Event{Time: 1})
	tr.Append(Event{Time: 2})
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
}

// Property: EventKey kind/name always round-trips for any kind and any name
// without a colon prefix ambiguity.
func TestKeyRoundTripProperty(t *testing.T) {
	f := func(kindRaw uint8, cls, mem string) bool {
		kind := Kind(kindRaw % 4)
		name := "C" + sanitize(cls) + "::" + "M" + sanitize(mem)
		k := KeyFor(kind, name)
		return k.Kind() == kind && k.Name() == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: AppendKey appends exactly the bytes of KeyFor, whatever the
// buffer already holds.
func TestAppendKeyMatchesKeyFor(t *testing.T) {
	f := func(kindRaw uint8, prefix []byte, name string) bool {
		kind := Kind(kindRaw % 5) // 4 is out of range and renders "?"
		got := AppendKey(prefix, kind, name)
		return string(got) == string(prefix)+string(KeyFor(kind, name))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			out = append(out, r)
		}
	}
	return string(out)
}
