package shardstore

import (
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"

	"cdcreplay/internal/store"
)

// compactTierBase is the size granule for tiering: fragments below one
// granule share tier 0, then tiers quadruple (log4), so repeated merges
// climb tiers geometrically instead of re-merging a large fragment with
// every small newcomer.
const compactTierBase = 4096

// compactTier buckets a fragment size: floor(log4(size/granule)), with
// everything under one granule in tier 0.
func compactTier(size int64) int {
	g := size / compactTierBase
	if g <= 0 {
		return 0
	}
	return (bits.Len64(uint64(g)) - 1) / 2
}

// Compact runs size-tiered compaction over every rank until no adjacent
// same-tier run of fragments remains, returning the number of merges
// performed. Byte offsets are unchanged — merging is ordered byte
// concatenation — so every committed index entry stays valid. Each merge
// is crash-safe: the merged fragment is written and fsynced first, the
// manifest republished atomically to reference it (with the folded index
// and the rank's fragment sizes refreshed), and only then are the old
// fragments deleted best-effort.
//
// Compact must not run concurrently with an open writer on the same rank;
// AppendRank's automatic trigger runs before the new tail fragment opens,
// which satisfies that by construction.
func (s *ShardStore) Compact() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.Manifest()
	if err != nil {
		return 0, err
	}
	if m.Shards == nil {
		return 0, fmt.Errorf("shardstore: %s: manifest has no shard map (layout %q)", s.dir, m.Layout)
	}
	merges := 0
	for r := 0; r < m.Ranks && r < len(m.Shards.Ranks); r++ {
		n, err := s.compactRankLocked(&m, r)
		merges += n
		if err != nil {
			return merges, err
		}
	}
	return merges, nil
}

// compactRankLocked merges adjacent same-tier fragment runs of one rank to
// a fixed point. Caller holds s.mu; m is refreshed in place as manifests
// are republished.
func (s *ShardStore) compactRankLocked(m *store.Manifest, rank int) (int, error) {
	merges := 0
	for {
		frags := m.Shards.Ranks[rank]
		lo, hi, err := s.findMergeRun(frags)
		if err != nil {
			return merges, err
		}
		if lo < 0 {
			return merges, nil
		}
		if err := s.mergeFragments(m, rank, lo, hi); err != nil {
			return merges, fmt.Errorf("shardstore: compacting rank %d: %w", rank, err)
		}
		merges++
	}
}

// findMergeRun locates the first maximal run of >= 2 adjacent fragments
// sharing a size tier, returning [lo, hi) or lo = -1 when none exists.
func (s *ShardStore) findMergeRun(frags []store.Fragment) (int, int, error) {
	if len(frags) < 2 {
		return -1, 0, nil
	}
	tiers := make([]int, len(frags))
	for i, fr := range frags {
		fi, err := os.Stat(filepath.Join(s.dir, filepath.FromSlash(fr.Path)))
		if err != nil {
			return -1, 0, fmt.Errorf("shardstore: fragment %s: %w", fr.Path, err)
		}
		tiers[i] = compactTier(fi.Size())
	}
	for lo := 0; lo < len(frags)-1; lo++ {
		hi := lo + 1
		for hi < len(frags) && tiers[hi] == tiers[lo] {
			hi++
		}
		if hi-lo >= 2 {
			return lo, hi, nil
		}
	}
	return -1, 0, nil
}

// mergeFragments concatenates frags[lo:hi] of rank into one new fragment
// and republishes the manifest. m's shard map is updated in place.
func (s *ShardStore) mergeFragments(m *store.Manifest, rank, lo, hi int) error {
	frags := m.Shards.Ranks[rank]
	rel := fragName(m.Shards.Fanout, rank, nextGen(frags))
	abs := filepath.Join(s.dir, filepath.FromSlash(rel))
	out, err := os.Create(abs)
	if err != nil {
		return err
	}
	for _, fr := range frags[lo:hi] {
		in, err := os.Open(filepath.Join(s.dir, filepath.FromSlash(fr.Path)))
		if err != nil {
			out.Close() //cdc:allow(errsink) best-effort cleanup; the open error is already propagating
			return err
		}
		_, err = io.Copy(out, in)
		in.Close() //cdc:allow(errsink) read-side close after a full copy; copy errors surface from io.Copy
		if err != nil {
			out.Close() //cdc:allow(errsink) best-effort cleanup; the copy error is already propagating
			return err
		}
	}
	if err := out.Sync(); err != nil {
		out.Close() //cdc:allow(errsink) best-effort cleanup; the sync error is already propagating
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	old := append([]store.Fragment(nil), frags[lo:hi]...)
	merged := append([]store.Fragment(nil), frags[:lo]...)
	merged = append(merged, store.Fragment{Path: rel})
	merged = append(merged, frags[hi:]...)
	m.Shards.Ranks[rank] = merged
	if err := s.refreshSizes(m, rank); err != nil {
		return err
	}
	if err := s.syncFragmentDirs(rel); err != nil {
		return err
	}
	if err := store.WriteManifestFile(s.dir, *m); err != nil {
		return err
	}
	s.removeFragments(old)
	return nil
}
