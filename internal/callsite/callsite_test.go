package callsite

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
)

func fromHelperA() (uint64, string) { return ID(1) }

func fromHelperB() (uint64, string) { return ID(1) }

func TestDistinctCallsitesGetDistinctIDs(t *testing.T) {
	idA, nameA := fromHelperA()
	idB, nameB := fromHelperB()
	if idA == idB {
		t.Fatalf("distinct callsites share id %#x (%s vs %s)", idA, nameA, nameB)
	}
	if !strings.Contains(nameA, "callsite_test.go") {
		t.Fatalf("name %q does not identify the source file", nameA)
	}
}

func TestSameCallsiteIsStable(t *testing.T) {
	var ids []uint64
	var names []string
	for i := 0; i < 3; i++ {
		id, name := fromHelperA()
		ids = append(ids, id)
		names = append(names, name)
	}
	for i := 1; i < 3; i++ {
		if ids[i] != ids[0] || names[i] != names[0] {
			t.Fatalf("callsite identity unstable: %v %v", ids, names)
		}
	}
}

func TestLoopCallsiteIsOne(t *testing.T) {
	// All iterations of a loop share a source line, hence one MF id —
	// the paper's Fig. 3 pattern relies on this.
	seen := map[uint64]bool{}
	for i := 0; i < 5; i++ {
		id, _ := ID(1)
		seen[id] = true
	}
	if len(seen) != 1 {
		t.Fatalf("loop produced %d distinct ids", len(seen))
	}
}

func TestIDNeverZero(t *testing.T) {
	id, _ := fromHelperA()
	if id == 0 {
		t.Fatal("callsite id 0 is reserved for disabled MF identification")
	}
}

func TestBadSkipIsHarmless(t *testing.T) {
	id, name := ID(1000)
	if id != 0 || name != "unknown" {
		t.Fatalf("got %#x %q for absurd skip", id, name)
	}
}

// site is one (id, name) result.
type site struct {
	id   uint64
	name string
}

func pair(id uint64, name string) site { return site{id, name} }

// refID is the test's reference for ID: runtime.Caller, then the name and
// hash rules ID documents. skip has ID's meaning.
func refID(skip int) (uint64, string) {
	_, file, line, ok := runtime.Caller(skip)
	if !ok {
		return 0, "unknown"
	}
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		if j := strings.LastIndexByte(file[:i], '/'); j >= 0 {
			file = file[j+1:]
		}
	}
	name := fmt.Sprintf("%s:%d", file, line)
	h := fnv.New64a()
	h.Write([]byte(name))
	id := h.Sum64()
	if id == 0 {
		id = 1
	}
	return id, name
}

// viaHelper and viaHelperRef are small enough to be inlined into their
// caller, so skip=2 walks through an inlined frame (a synthetic PC from
// runtime.Callers rather than a return address).
func viaHelper() site    { return pair(ID(2)) }
func viaHelperRef() site { return pair(refID(2)) }

type mfCaller struct{}

func (mfCaller) call() (site, site) { return pair(ID(1)), pair(refID(1)) }

func TestIDMatchesCallerDerivation(t *testing.T) {
	kinds := []string{"direct", "inlined helper", "method", "closure"}
	var got, want []site
	check := func(g, w site) { got, want = append(got, g), append(want, w) }
	// The first pass fills the cache, the second hits it.
	for pass := 0; pass < 2; pass++ {
		check(pair(ID(1)), pair(refID(1)))
		check(viaHelper(), viaHelperRef())
		check(mfCaller{}.call())
		func() { check(pair(ID(1)), pair(refID(1))) }()
	}
	for i := range got {
		kind := kinds[i%len(kinds)]
		if got[i] != want[i] {
			t.Errorf("%s (pass %d): ID = %#x %q, runtime.Caller derivation = %#x %q",
				kind, i/len(kinds), got[i].id, got[i].name, want[i].id, want[i].name)
		}
		if !strings.HasPrefix(got[i].name, "callsite/callsite_test.go:") {
			t.Errorf("%s: name %q does not name this file", kind, got[i].name)
		}
	}
}

func TestIDCacheHitDoesNotAllocate(t *testing.T) {
	var id uint64
	allocs := testing.AllocsPerRun(100, func() { id, _ = ID(1) })
	if allocs != 0 {
		t.Fatalf("cached ID lookup allocates %.1f times per call", allocs)
	}
	if id == 0 {
		t.Fatal("cached ID lookup returned 0")
	}
}
