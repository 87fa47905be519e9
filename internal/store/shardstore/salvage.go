package shardstore

import (
	"fmt"
	"io"
	"path/filepath"

	"cdcreplay/internal/store"
)

// Salvage recovers an incomplete run in place to a consistent cross-rank
// prefix (see store.PlanSalvage): each rank's kept segments are rewritten
// into a single fresh fragment, the index collapsed to one final cut, and
// the manifest — new shard map, Complete, Salvaged — published atomically
// as the commit point. Old fragments are deleted best-effort afterwards;
// a crash before the manifest swap leaves the damaged run exactly as it
// was, a crash after it leaves a healthy salvaged run plus leaked files.
// Complete runs are untouched (nil report).
func (s *ShardStore) Salvage() (*store.SalvageReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := s.Manifest()
	if err != nil {
		return nil, err
	}
	if m.Complete {
		return nil, nil
	}
	if m.Shards == nil || m.Shards.Fanout <= 0 {
		return nil, fmt.Errorf("shardstore: %s: manifest has no shard map (layout %q)", s.dir, m.Layout)
	}
	// A rank that never opened a fragment fails RawRank, which PlanSalvage
	// records as a damaged rank with zero segments.
	plan, err := store.PlanSalvage(m, func(rank int) (io.ReadCloser, error) { return s.RawRank(rank) })
	if err != nil {
		return nil, err
	}
	var old []store.Fragment
	for len(m.Shards.Ranks) < m.Ranks {
		m.Shards.Ranks = append(m.Shards.Ranks, nil)
	}
	m.Index = nil
	for r := 0; r < m.Ranks; r++ {
		old = append(old, m.Shards.Ranks[r]...)
		f, frag, err := s.newFragment(&m, r)
		if err != nil {
			return nil, err
		}
		size, lastClock, werr := store.WriteSegments(f, plan.Keep[r])
		if werr == nil {
			werr = f.Sync()
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr == nil {
			werr = s.syncFragmentDirs(frag.Path)
		}
		if werr != nil {
			return nil, fmt.Errorf("shardstore: rewriting salvaged rank %d: %w", r, werr)
		}
		frag.Size = size
		m.Shards.Ranks[r] = []store.Fragment{frag}
		m.AppendIndex(r, store.IndexEntry{
			Clock:  lastClock,
			Events: plan.Report.Ranks[r].EventsKept,
			Offset: size,
		})
	}
	m.Complete = true
	m.Salvaged = true
	m.Finished = plan.Finished
	if err := store.WriteManifestFile(s.dir, m); err != nil {
		return nil, err
	}
	s.removeFragments(old)
	return plan.Report, nil
}

// Root is a multi-run sharded-layout store (the ingest daemon's record
// root with -store sharded).
type Root struct{ root string }

// OpenRoot returns the multi-run store rooted at root. A missing root is
// an empty store.
func OpenRoot(root string) *Root { return &Root{root: root} }

// Open returns the run store at name (slash-separated, e.g. tenant/run).
func (r *Root) Open(name string) (store.Store, error) {
	return New(filepath.Join(r.root, filepath.FromSlash(name))), nil
}

// SalvageAll recovers every incomplete sharded run under the root in place
// (see store.SalvageRoot: garbage manifests and runs of other layouts are
// skipped with a finding).
func (r *Root) SalvageAll() ([]store.RunSalvage, error) {
	return store.SalvageRoot(r.root, store.LayoutSharded, func(dir string) store.Store { return New(dir) })
}

var _ store.Root = (*Root)(nil)
