package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"testing"

	"cdcreplay/internal/core"
	"cdcreplay/internal/dst"
)

// Golden end-to-end record fixtures: a small deterministic MCB run encoded
// with the v2 durable framing, committed under testdata/golden. The test is
// a decode-compatibility pin — every future revision of the decoder must
// still read these exact bytes into the same chunks — not a re-encoding pin
// (callsite IDs hash file:line, so workload edits legitimately change
// freshly generated bytes).
//
// Regenerate after a deliberate format change with:
//
//	CDC_WRITE_GOLDEN=1 go test ./internal/core -run Golden
const goldenDir = "testdata/golden"

type goldenRank struct {
	File        string `json:"file"`
	Bytes       int    `json:"bytes"`
	Callsites   int    `json:"callsites"`
	Chunks      int    `json:"chunks"`
	Matched     uint64 `json:"matched_events"`
	ChunkDigest string `json:"chunk_digest"`
}

type goldenSummary struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Durable  bool         `json:"durable"`
	Ranks    []goldenRank `json:"ranks"`
}

// digestRecord decodes a record and reduces it to the summary the fixture
// pins: structure counts plus an FNV-64a digest over every chunk's
// canonical encoding, walked callsite by callsite in first-chunk order.
func digestRecord(data []byte) (callsites, chunks int, matched uint64, digest string, err error) {
	it, err := core.OpenRecord(bytes.NewReader(data))
	if err != nil {
		return 0, 0, 0, "", err
	}
	defer it.Close()
	var order []uint64
	encoded := map[uint64][]byte{}
	for {
		f, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, 0, "", err
		}
		if ch := f.Chunk; ch != nil {
			if _, seen := encoded[ch.Callsite]; !seen {
				order = append(order, ch.Callsite)
			}
			chunks++
			matched += ch.NumMatched
			encoded[ch.Callsite] = ch.Marshal(encoded[ch.Callsite])
		}
	}
	h := fnv.New64a()
	for _, cs := range order {
		h.Write(encoded[cs])
	}
	return len(order), chunks, matched, fmt.Sprintf("%016x", h.Sum64()), nil
}

func writeGolden(t *testing.T) {
	t.Helper()
	const seed, workload = 3, "mcb"
	streams, err := dst.DeterministicRecord(workload, seed, true,
		core.EncoderOptions{ChunkEvents: 64, Durable: true})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	sum := goldenSummary{Workload: workload, Seed: seed, Durable: true}
	for rank, raw := range streams {
		cs, chunks, matched, digest, err := digestRecord(raw)
		if err != nil {
			t.Fatalf("generated rank %d does not decode: %v", rank, err)
		}
		name := fmt.Sprintf("rank-%d.cdc", rank)
		if err := os.WriteFile(filepath.Join(goldenDir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		sum.Ranks = append(sum.Ranks, goldenRank{
			File: name, Bytes: len(raw),
			Callsites: cs, Chunks: chunks, Matched: matched, ChunkDigest: digest,
		})
	}
	js, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDir, "summary.json"), append(js, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %d golden rank files in %s", len(sum.Ranks), goldenDir)
}

func TestGoldenDecodeCompatibility(t *testing.T) {
	if os.Getenv("CDC_WRITE_GOLDEN") != "" {
		writeGolden(t)
	}
	raw, err := os.ReadFile(filepath.Join(goldenDir, "summary.json"))
	if err != nil {
		t.Fatalf("golden fixtures missing (regenerate: CDC_WRITE_GOLDEN=1 go test ./internal/core -run Golden): %v", err)
	}
	var sum goldenSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("summary.json: %v", err)
	}
	if len(sum.Ranks) == 0 {
		t.Fatalf("summary.json lists no ranks")
	}
	for _, gr := range sum.Ranks {
		data, err := os.ReadFile(filepath.Join(goldenDir, gr.File))
		if err != nil {
			t.Fatalf("fixture %s: %v", gr.File, err)
		}
		if len(data) != gr.Bytes {
			t.Errorf("%s: %d bytes on disk, summary says %d", gr.File, len(data), gr.Bytes)
		}
		cs, chunks, matched, digest, err := digestRecord(data)
		if err != nil {
			t.Fatalf("%s: decoder no longer reads the committed v2 stream: %v", gr.File, err)
		}
		if cs != gr.Callsites || chunks != gr.Chunks || matched != gr.Matched {
			t.Errorf("%s: decoded structure drifted: callsites %d/%d, chunks %d/%d, matched %d/%d",
				gr.File, cs, gr.Callsites, chunks, gr.Chunks, matched, gr.Matched)
		}
		if digest != gr.ChunkDigest {
			t.Errorf("%s: chunk digest drifted: %s, summary says %s", gr.File, digest, gr.ChunkDigest)
		}
	}
}
