package trace

import (
	"sync"
	"testing"
)

// TestNamesTable: IDs count from 1 in first-seen order, a name keeps its
// ID, every key equals KeyFor's, and Reset empties the table for reuse.
func TestNamesTable(t *testing.T) {
	tab := NewNames()
	for round := 0; round < 2; round++ {
		wantIDs := []NameID{1, 2, 3, 1}
		for i, name := range []string{"C::f", "System.Threading.Monitor::Enter", "", "C::f"} {
			id := tab.Intern(name)
			if want := wantIDs[i]; id != want {
				t.Fatalf("round %d: %q got ID %d, want %d", round, name, id, want)
			}
			if tab.Name(id) != name {
				t.Fatalf("ID %d names %q, want %q", id, tab.Name(id), name)
			}
			for k := KindRead; k <= KindEnd; k++ {
				if got := tab.Key(id, k); got != KeyFor(k, name) {
					t.Fatalf("key of %q as %s = %q, want %q", name, k, got, KeyFor(k, name))
				}
			}
		}
		if tab.Len() != 3 {
			t.Fatalf("round %d: %d names, want 3", round, tab.Len())
		}
		tab.Reset()
		if tab.Len() != 0 {
			t.Fatalf("a reset table holds %d names", tab.Len())
		}
	}
	tab.Intern("C::f")
	tab.Seal()
	if tab.Name(1) != "C::f" || tab.Key(1, KindWrite) != "write:C::f" {
		t.Fatal("a sealed table no longer reads its names")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intern on a sealed table did not panic")
		}
	}()
	tab.Intern("C::g")
}

// TestNamesKeysConcurrent: goroutines asking a fresh table for the same
// keys at once all get KeyFor's keys (run it under -race).
func TestNamesKeysConcurrent(t *testing.T) {
	tab := NewNames()
	names := []string{"C::f", "C::g", "System.Threading.Monitor::Exit"}
	for _, n := range names {
		tab.Intern(n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := NameID(1); int(id) <= tab.Len(); id++ {
				for k := KindRead; k <= KindEnd; k++ {
					if got, want := tab.Key(id, k), KeyFor(k, names[id-1]); got != want {
						t.Errorf("key %q, want %q", got, want)
					}
				}
			}
		}()
	}
	wg.Wait()
}
