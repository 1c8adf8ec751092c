package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFacts loads the accessfacts fixture and runs the access-fact pass
// over it alone.
func loadFacts(t *testing.T) (*Package, *Facts) {
	t.Helper()
	modRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loadDir(modRoot, filepath.Join("testdata", "accessfacts"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return pkg, CollectFacts([]*Package{pkg})
}

// markerLine finds the fixture line carrying "marker: <name>".
func markerLine(t *testing.T, name string) int {
	t.Helper()
	path := filepath.Join("testdata", "accessfacts", "facts.go")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, ln := range strings.Split(string(data), "\n") {
		if strings.Contains(ln, "marker: "+name) {
			return i + 1
		}
	}
	t.Fatalf("fixture has no marker %q", name)
	return 0
}

// accessAt finds the unique access to key on the marker's line.
func accessAt(t *testing.T, facts *Facts, key FieldKey, marker string) Access {
	t.Helper()
	line := markerLine(t, marker)
	var found []Access
	for _, a := range facts.Accesses[key] {
		if a.Pos.Line == line {
			found = append(found, a)
		}
	}
	if len(found) != 1 {
		t.Fatalf("marker %s: %d accesses to %s on line %d, want 1", marker, len(found), key, line)
	}
	return found[0]
}

func TestCollectFactsGuards(t *testing.T) {
	_, facts := loadFacts(t)
	count := FieldKey{Pkg: "accessfacts", Type: "table", Field: "count"}
	gauge := FieldKey{Pkg: "accessfacts", Type: "table", Field: "gauge"}

	g, ok := facts.Guards[count]
	if !ok || g.Mutex != "mu" || g.RW {
		t.Errorf("Guards[count] = %+v, %v; want mutex mu, plain Mutex", g, ok)
	}
	g, ok = facts.Guards[gauge]
	if !ok || g.Mutex != "rw" || !g.RW {
		t.Errorf("Guards[gauge] = %+v, %v; want mutex rw, RWMutex", g, ok)
	}
	if len(facts.Problems) != 0 {
		t.Errorf("well-formed fixture produced guard problems: %v", facts.Problems)
	}
}

func TestCollectFactsLockHeld(t *testing.T) {
	_, facts := loadFacts(t)
	count := FieldKey{Pkg: "accessfacts", Type: "table", Field: "count"}
	gauge := FieldKey{Pkg: "accessfacts", Type: "table", Field: "gauge"}

	cases := []struct {
		marker        string
		key           FieldKey
		kind          AccessKind
		heldExclusive bool
		heldShared    bool
		local         bool
	}{
		// Lock()...Unlock() brackets the write.
		{"locked-write", count, AccessWrite, true, false, false},
		// defer mu.Unlock() keeps the lock held to function end.
		{"deferred-write", count, AccessWrite, true, false, false},
		// No lock anywhere in scope.
		{"bare-write", count, AccessWrite, false, false, false},
		// RLock grants shared, not exclusive.
		{"shared-read", gauge, AccessRead, false, true, false},
		{"bare-read", gauge, AccessRead, false, false, false},
		// Root object declared in the enclosing function: pre-publication.
		{"local-write", count, AccessWrite, false, false, true},
		// Inside an xxxLocked method the receiver's lock is held by
		// convention.
		{"convention-write", count, AccessWrite, true, false, false},
	}
	for _, tc := range cases {
		a := accessAt(t, facts, tc.key, tc.marker)
		if a.Kind != tc.kind || a.HeldExclusive != tc.heldExclusive ||
			a.HeldShared != tc.heldShared || a.Local != tc.local {
			t.Errorf("%s: got kind=%v excl=%v shared=%v local=%v, want kind=%v excl=%v shared=%v local=%v",
				tc.marker, a.Kind, a.HeldExclusive, a.HeldShared, a.Local,
				tc.kind, tc.heldExclusive, tc.heldShared, tc.local)
		}
	}
}

func TestCollectFactsAtomic(t *testing.T) {
	_, facts := loadFacts(t)
	hits := FieldKey{Pkg: "accessfacts", Type: "table", Field: "hits"}
	boxed := FieldKey{Pkg: "accessfacts", Type: "table", Field: "boxed"}

	if !facts.AtomicTyped[boxed] {
		t.Errorf("AtomicTyped[%s] = false, want true", boxed)
	}
	if facts.AtomicTyped[hits] {
		t.Errorf("AtomicTyped[%s] = true, want false (plain int64)", hits)
	}

	cases := []struct {
		marker string
		key    FieldKey
		kind   AccessKind
	}{
		// &t.hits passed to atomic.AddInt64.
		{"atomic-op", hits, AccessAtomicOp},
		// Plain read beside the atomic writer: the torn-read bug class.
		{"torn-read", hits, AccessRead},
		// Method call on the box.
		{"box-op", boxed, AccessAtomicOp},
		// Returning the box by value forks its state.
		{"box-copy", boxed, AccessAtomicValue},
	}
	for _, tc := range cases {
		if a := accessAt(t, facts, tc.key, tc.marker); a.Kind != tc.kind {
			t.Errorf("%s: kind = %v, want %v", tc.marker, a.Kind, tc.kind)
		}
	}
}

func TestCollectFactsLockedCalls(t *testing.T) {
	_, facts := loadFacts(t)
	byLine := map[int]LockedCall{}
	for _, lc := range facts.LockedCalls {
		byLine[lc.Pos.Line] = lc
	}
	if len(facts.LockedCalls) != 2 {
		t.Fatalf("recorded %d locked calls, want 2: %v", len(facts.LockedCalls), facts.LockedCalls)
	}

	held := byLine[markerLine(t, "locked-call-held")]
	if held.Method != "resetLocked" || !held.HeldAny {
		t.Errorf("call under mu.Lock: %+v, want resetLocked with HeldAny", held)
	}
	bare := byLine[markerLine(t, "locked-call-bare")]
	if bare.Method != "resetLocked" || bare.HeldAny {
		t.Errorf("call without lock: %+v, want resetLocked without HeldAny", bare)
	}
}
