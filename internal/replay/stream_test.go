package replay

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cdcreplay/internal/cdcformat"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/tables"
)

// mkStream builds a stream over chunks constructed from event runs.
func mkStream(t *testing.T, runs ...[]tables.Event) *stream {
	t.Helper()
	s := &stream{name: "test"}
	var chunks []*cdcformat.Chunk
	for _, events := range runs {
		c := cdcformat.BuildChunkWithSenders(1, events)
		s.total += c.NumMatched
		chunks = append(chunks, c)
	}
	next := 0
	s.fetch = func() (*cdcformat.Chunk, error) {
		if next >= len(chunks) {
			return nil, ErrExhausted
		}
		c := chunks[next]
		next++
		return c, nil
	}
	return s
}

func TestStreamLoadAdvancesAndMergesFrontiers(t *testing.T) {
	s := mkStream(t,
		[]tables.Event{tables.Matched(0, 5, false), tables.Matched(1, 3, false)},
		[]tables.Event{tables.Matched(0, 9, false)},
	)
	if err := s.load(); err != nil {
		t.Fatal(err)
	}
	if s.n != 2 || s.t != 0 {
		t.Fatalf("chunk 0 state: n=%d t=%d", s.n, s.t)
	}
	if !s.inWindow(0, 5) || !s.inWindow(1, 3) {
		t.Fatal("chunk-0 messages not in window")
	}
	if s.inWindow(0, 9) {
		t.Fatal("chunk-1 message accepted by chunk 0")
	}
	// Pretend chunk 0 finished; load chunk 1 and check the cumulative
	// frontier excludes chunk-0 clocks.
	s.t = s.n
	if err := s.load(); err != nil {
		t.Fatal(err)
	}
	if s.prevFrontier[0] != 5 || s.prevFrontier[1] != 3 {
		t.Fatalf("prevFrontier = %v", s.prevFrontier)
	}
	if s.inWindow(0, 5) {
		t.Fatal("chunk-0 clock accepted by chunk 1")
	}
	if !s.inWindow(0, 9) {
		t.Fatal("chunk-1 clock rejected")
	}
}

func TestStreamExhaustion(t *testing.T) {
	s := mkStream(t, []tables.Event{tables.Matched(0, 1, false)})
	if err := s.ensure(); err != nil {
		t.Fatal(err)
	}
	s.t = s.n // consume the only event
	if err := s.ensure(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("ensure after exhaustion = %v, want ErrExhausted", err)
	}
}

func TestStreamUnmatchedConsumption(t *testing.T) {
	s := mkStream(t, []tables.Event{
		tables.Unmatched(2),
		tables.Matched(0, 1, false),
		tables.Unmatched(1), // trailing
	})
	if err := s.ensure(); err != nil {
		t.Fatal(err)
	}
	if !s.consumeUnmatched() || !s.consumeUnmatched() {
		t.Fatal("leading unmatched run not consumable twice")
	}
	if s.consumeUnmatched() {
		t.Fatal("third leading consumption succeeded")
	}
	s.t = 1 // matched event released
	if !s.consumeUnmatched() {
		t.Fatal("trailing unmatched run not consumable")
	}
	if !s.chunkDone() {
		t.Fatal("chunk not done after full consumption")
	}
}

func TestStreamGroupLen(t *testing.T) {
	s := mkStream(t, []tables.Event{
		tables.Matched(0, 1, true),
		tables.Matched(0, 2, true),
		tables.Matched(0, 3, false),
		tables.Matched(0, 4, false),
	})
	if err := s.ensure(); err != nil {
		t.Fatal(err)
	}
	if g := s.groupLen(); g != 3 {
		t.Fatalf("group length = %d, want 3", g)
	}
	s.t = 3
	if g := s.groupLen(); g != 1 {
		t.Fatalf("tail group length = %d, want 1", g)
	}
}

func TestStreamExactIdentificationOutOfOrderArrival(t *testing.T) {
	// Record observed order: (1,4) then (0,2). Exact mode must hand out
	// (1,4) first even though (0,2) sorts lower and arrives first.
	s := mkStream(t, []tables.Event{
		tables.Matched(1, 4, false),
		tables.Matched(0, 2, false),
	})
	if err := s.ensure(); err != nil {
		t.Fatal(err)
	}
	s.learnSpecs(nil)
	rp := &Replayer{lastSeen: map[int32]uint64{}}
	s.insert(pooled{st: simmpi.Status{Source: 0, Clock: 2}})
	if k := s.candidateAt(rp, 0); k != -1 {
		t.Fatalf("candidate found before (1,4) arrived: %d", k)
	}
	s.insert(pooled{st: simmpi.Status{Source: 1, Clock: 4}})
	k := s.candidateAt(rp, 0)
	if k < 0 {
		t.Fatal("no candidate with both messages present")
	}
	got := s.takeAt(k, 0)
	if got.st.Source != 1 || got.st.Clock != 4 {
		t.Fatalf("released (%d,%d), want (1,4)", got.st.Source, got.st.Clock)
	}
	k = s.candidateAt(rp, 1)
	if k < 0 {
		t.Fatal("no candidate for second event")
	}
	got = s.takeAt(k, 1)
	if got.st.Source != 0 || got.st.Clock != 2 {
		t.Fatalf("released (%d,%d), want (0,2)", got.st.Source, got.st.Clock)
	}
	if err := s.verifyChunk(); err != nil {
		t.Fatalf("verify failed on correct releases: %v", err)
	}
}

func TestVerifyChunkRejectsMisorderedReleases(t *testing.T) {
	s := mkStream(t, []tables.Event{
		tables.Matched(0, 1, false),
		tables.Matched(0, 2, false),
	})
	if err := s.ensure(); err != nil {
		t.Fatal(err)
	}
	// Force a wrong assignment: rank 0 gets the higher clock.
	s.releasedKey[0] = tables.MatchedEntry{Rank: 0, Clock: 2}
	s.releasedKey[1] = tables.MatchedEntry{Rank: 0, Clock: 1}
	s.nReleased = 2
	if err := s.verifyChunk(); !errors.Is(err, ErrDiverged) {
		t.Fatalf("verify = %v, want ErrDiverged", err)
	}
}

func TestStreamSpecFiltering(t *testing.T) {
	s := mkStream(t, []tables.Event{tables.MatchedTagged(0, 7, 1, false)})
	if err := s.ensure(); err != nil {
		t.Fatal(err)
	}
	rp := &Replayer{lastSeen: map[int32]uint64{}}
	rp.harvest(pooled{st: simmpi.Status{Source: 0, Tag: 9, Clock: 1}}) // wrong tag
	s.specs = []specPair{{simmpi.AnySource, 7}}
	s.collect(rp)
	if len(s.collected) != 0 {
		t.Fatal("collected a message no learned spec accepts")
	}
	if len(rp.pool) != 1 {
		t.Fatal("rejected message evicted from pool")
	}
	rp.harvest(pooled{st: simmpi.Status{Source: 0, Tag: 7, Clock: 1}})
	s.collect(rp)
	if len(s.collected) != 1 || len(rp.pool) != 1 {
		t.Fatalf("collected %d pooled %d", len(s.collected), len(rp.pool))
	}
}

func TestStreamOverfullDetection(t *testing.T) {
	s := mkStream(t, []tables.Event{tables.Matched(0, 5, false)})
	if err := s.ensure(); err != nil {
		t.Fatal(err)
	}
	s.specs = []specPair{{simmpi.AnySource, simmpi.AnyTag}}
	rp := &Replayer{lastSeen: map[int32]uint64{}}
	rp.harvest(pooled{st: simmpi.Status{Source: 0, Clock: 3}})
	rp.harvest(pooled{st: simmpi.Status{Source: 0, Clock: 5}})
	s.collect(rp)
	if s.err == nil {
		t.Fatal("overfull chunk not detected")
	}
}

func TestStreamZeroMatchedChunk(t *testing.T) {
	// A flush can produce a chunk holding only unmatched-test runs
	// (N = 0): the stream must serve the run and advance cleanly.
	s := mkStream(t,
		[]tables.Event{tables.Unmatched(2)},
		[]tables.Event{tables.Matched(0, 5, false)},
	)
	if err := s.ensure(); err != nil {
		t.Fatal(err)
	}
	if s.n != 0 {
		t.Fatalf("n = %d", s.n)
	}
	if !s.consumeUnmatched() || !s.consumeUnmatched() {
		t.Fatal("unmatched run not consumable")
	}
	if s.consumeUnmatched() {
		t.Fatal("over-consumed")
	}
	if err := s.ensure(); err != nil {
		t.Fatal(err)
	}
	if s.n != 1 {
		t.Fatalf("second chunk n = %d", s.n)
	}
}

// TestStallErrorBounded: a stall with a pool and spec list far above the
// print cap yields a message of bounded length that still names the
// awaited (sender, tag) arrival and the full pool size.
func TestStallErrorBounded(t *testing.T) {
	s := mkStream(t, []tables.Event{tables.Matched(2, 5, false), tables.Matched(1, 3, false)})
	if err := s.load(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		s.specs = append(s.specs, specPair{i, 7})
	}
	rp := &Replayer{lastSeen: map[int32]uint64{}}
	for i := 0; i < 300; i++ {
		rp.pool = append(rp.pool, pooled{st: simmpi.Status{Source: i % 8, Tag: 7, Clock: uint64(1000 + i)}, seq: uint64(i)})
	}
	msg := rp.stallError(s, 0, 1).Error()
	r := s.refAtObs[0]
	for _, want := range []string{
		fmt.Sprintf("of (sender %d, tag %d)", s.senders[r], s.tags[r]),
		"pool 300)",
		"(+284 more)",
		"(+24 more)",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("stall error lacks %q:\n%s", want, msg)
		}
	}
	if len(msg) > 1024 {
		t.Errorf("stall error is %d bytes, want at most 1024:\n%s", len(msg), msg)
	}
}
