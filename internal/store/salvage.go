package store

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"cdcreplay/internal/cdcformat"
	"cdcreplay/internal/core"
)

// This file holds the backend-independent salvage machinery: scanning a
// damaged blob into flush-point segments, trimming per-rank prefixes to a
// mutually consistent cross-rank frontier, and re-emitting the kept
// frames. Backends own only the byte movement around it (where blobs come
// from, how the recovered run is swapped into place crash-safely).
//
// Per rank, the unit of recovery is the flush-point segment: frames
// between consecutive flush-point marks. A mark is written only when the
// encoder flushed every callsite stream through it, so the segments before
// a mark are a complete cut of the rank's event history; frames past the
// last CRC-valid mark (torn by the crash) are discarded.
//
// Per-rank prefixes are then trimmed to a mutually consistent frontier.
// Let C[s] be the largest clock such that everything rank s did at a
// Lamport clock ≤ C[s] precedes its kept prefix's last row (infinite when
// s's whole record survived intact): a kept receive of clock c gives c,
// and a mark stamped with s's own clock M gives M-1. Lamport clocks are
// monotone within a rank, so a prefix replay of s deterministically
// regenerates every send s made with piggyback clock ≤ C[s], and enters
// every collective it entered at a clock ≤ C[s] with the recorded
// contribution. A kept chunk of rank r is therefore only replayable if
// every epoch-line entry (sender s, clock c) satisfies c ≤ C[s], and a
// kept segment in which r left a collective with clock K (the mark's
// collective clock; every participant entered it at a clock ≤ K-1) only
// if K-1 ≤ C[s] for every rank s. Segments violating either are trimmed,
// which can lower C[r] and cascade, so the trim iterates to a fixed point
// (it terminates: kept prefixes only shrink).

// SalvageReport describes what a salvage recovered.
type SalvageReport struct {
	Ranks []RankSalvage
}

// Events returns the total salvaged matched-event count across ranks.
func (r *SalvageReport) Events() (kept, total uint64) {
	for _, rs := range r.Ranks {
		kept += rs.EventsKept
		total += rs.EventsTotal
	}
	return kept, total
}

// RankSalvage describes one rank's salvage outcome.
type RankSalvage struct {
	Rank int
	// Truncated reports the rank's record blob was damaged or missing;
	// Damage describes how.
	Truncated bool
	Damage    string
	// SegmentsKept of SegmentsTotal flush-point segments survived the
	// CRC scan and the consistency trim.
	SegmentsKept, SegmentsTotal int
	// EventsKept of EventsTotal matched events are in the kept prefix.
	EventsKept, EventsTotal uint64
	// Frontier is the rank's kept-clock frontier C[r]; math.MaxUint64
	// means the whole record survived intact.
	Frontier uint64
}

// RunSalvage is one run's outcome from a Root.SalvageAll sweep.
type RunSalvage struct {
	// Dir is the run's name, relative to the walked root.
	Dir string
	// Salvaged reports the run was incomplete and a consistent prefix was
	// recovered in place; Report describes what survived. False with a
	// nil Err means the run was already complete and was left untouched.
	Salvaged bool
	// Adopted reports a finished salvage from a previous crashed recovery
	// (the swap's rename had not happened yet) was moved into place.
	Adopted bool
	// Skipped reports the run was left untouched because its manifest is
	// unreadable garbage (ErrBadManifest class); Finding says how. A
	// skipped run is a logged finding, not a sweep failure — one damaged
	// tenant must not block every other tenant's recovery.
	Skipped bool
	Finding string
	// Report is the per-rank salvage outcome (nil unless Salvaged).
	Report *SalvageReport
	// Err is the failure for this run; SalvageAll continues past it so one
	// damaged tenant cannot block every other tenant's recovery.
	Err error
}

// Segment is one flush-point segment: the frames up to and including a
// flush mark, with the matched-event count and cut summary of its chunks.
type Segment struct {
	Frames []*core.Frame
	// Events counts the segment's matched receive events.
	Events uint64
	SegmentSummary
}

// SegmentSummary is what the consistent-cut rule reads of one flush-point
// segment. Clock is the writing rank's Lamport clock stamped into the
// closing mark — a lower bound on its clock at the cut. Coll is the mark's
// collective clock: the rank's clock on leaving the newest collective
// before the cut, zero when it has left none. Refs holds, per sender, the
// largest clock the segment's matched events reference, sorted by rank.
type SegmentSummary struct {
	Clock uint64
	Coll  uint64
	Refs  []cdcformat.EpochEntry
}

// Ref raises the summary's referenced clock for sender to at least clock.
func (s *SegmentSummary) Ref(sender int32, clock uint64) {
	i, found := slices.BinarySearchFunc(s.Refs, sender, func(e cdcformat.EpochEntry, r int32) int {
		return cmp.Compare(e.Rank, r)
	})
	switch {
	case !found:
		s.Refs = slices.Insert(s.Refs, i, cdcformat.EpochEntry{Rank: sender, Clock: clock})
	case clock > s.Refs[i].Clock:
		s.Refs[i].Clock = clock
	}
}

// ScanSegments scans one record blob into complete flush-point segments,
// dropping any trailing frames not sealed by a mark. clean reports the
// blob ended exactly at a mark with an intact gzip stream; damage
// describes the failure otherwise.
func ScanSegments(r io.Reader) (segs []*Segment, clean bool, damage string) {
	fr, err := core.NewFrameReader(r)
	if err != nil {
		return nil, false, err.Error()
	}
	defer fr.Close() //cdc:allow(errsink) read-side close; scan errors are captured as segment damage
	cur := &Segment{}
	for {
		frame, err := fr.Next()
		if err == io.EOF {
			return segs, len(cur.Frames) == 0, ""
		}
		if err != nil {
			return segs, false, err.Error()
		}
		cur.Frames = append(cur.Frames, frame)
		if ch := frame.Chunk; ch != nil {
			cur.Events += ch.NumMatched
			for _, e := range ch.EpochLine {
				cur.Ref(e.Rank, e.Clock)
			}
		}
		if frame.Flush {
			cur.Clock, cur.Coll = frame.FlushClock, frame.CollClock
			segs = append(segs, cur)
			cur = &Segment{}
		}
	}
}

// SalvagePlan is a computed consistent cut of a crashed run: the per-rank
// kept segments and the report describing them. Backends write Keep[r]
// into their own crash-safe destination (WriteSegments) and record the
// rebuilt single-cut index.
type SalvagePlan struct {
	Report *SalvageReport
	Keep   [][]*Segment
	// Finished is the salvaged run's Manifest.Finished: the source's
	// finished ranks whose record the cut keeps whole. A trimmed rank's
	// writer has to resume onto its kept prefix, and a salvaged blob
	// closes cleanly whatever was cut from it, so a later salvage of the
	// run reads only this list as proof that a rank is whole.
	Finished []int
}

// PlanSalvage scans every rank's blob (openRank; a missing blob may return
// fs.ErrNotExist and counts as fully damaged) and trims to the cross-rank
// consistent frontier. It moves no bytes.
func PlanSalvage(m Manifest, openRank func(rank int) (io.ReadCloser, error)) (*SalvagePlan, error) {
	n := m.Ranks
	segs := make([][]*Segment, n)
	sums := make([][]SegmentSummary, n)
	report := &SalvageReport{Ranks: make([]RankSalvage, n)}
	clean := make([]bool, n)
	for r := 0; r < n; r++ {
		rs := &report.Ranks[r]
		rs.Rank = r
		blob, err := openRank(r)
		if err != nil {
			segs[r], clean[r], rs.Damage = nil, false, "open: "+err.Error()
		} else {
			segs[r], clean[r], rs.Damage = ScanSegments(blob)
			blob.Close() //cdc:allow(errsink) read-side close of the damaged blob being scanned
		}
		rs.Truncated = !clean[r]
		rs.SegmentsTotal = len(segs[r])
		sums[r] = make([]SegmentSummary, len(segs[r]))
		for i, s := range segs[r] {
			sums[r][i] = s.SegmentSummary
			rs.EventsTotal += s.Events
		}
	}

	// A salvage closes every blob it rewrites cleanly, trimmed or not, so
	// on a run a salvage already wrote only Finished proves a rank whole.
	if m.Salvaged {
		for r := range clean {
			clean[r] = clean[r] && slices.Contains(m.Finished, r)
		}
	}
	keep, frontiers := ConsistentCut(sums, make([]uint64, n), clean)
	plan := &SalvagePlan{Report: report, Keep: make([][]*Segment, n)}
	for r := 0; r < n; r++ {
		rs := &report.Ranks[r]
		rs.SegmentsKept = keep[r]
		rs.Frontier = frontiers[r]
		plan.Keep[r] = segs[r][:keep[r]]
		for _, s := range plan.Keep[r] {
			rs.EventsKept += s.Events
		}
		if rs.Frontier == math.MaxUint64 && slices.Contains(m.Finished, r) {
			plan.Finished = append(plan.Finished, r)
		}
	}
	return plan, nil
}

// ConsistentCut is the one consistent-cut rule, shared by salvage and the
// ingest daemon's ack barrier. Given each rank's flush-point segments in
// order, it returns how many of segs[r] the maximal cross-rank-consistent
// cut keeps and rank r's frontier C[r] at that cut. base[r] is a clock
// already kept below segs[r] (0 when segs[r] starts at the record head);
// intact[r] reports that segs[r] runs to the end of a cleanly closed
// record, so keeping all of it makes C[r] infinite. A rank with no
// segments, base 0 and intact false is a rank with no durable data.
//
// The maximal fixed point matters: salvage keeps any self-consistent cut,
// and ranks whose last segments reference each other form cycles that
// only the maximal solution keeps.
func ConsistentCut(segs [][]SegmentSummary, base []uint64, intact []bool) (keep []int, frontiers []uint64) {
	n := len(segs)
	keep = make([]int, n)
	frontiers = make([]uint64, n)
	for r := 0; r < n; r++ {
		keep[r] = len(segs[r])
		frontiers[r] = frontier(segs[r], keep[r], base[r], intact[r])
	}
	for changed := true; changed; {
		changed = false
		for r := 0; r < n; r++ {
			if v := firstViolation(segs[r], keep[r], frontiers); v < keep[r] {
				keep[r] = v
				frontiers[r] = frontier(segs[r], keep[r], base[r], intact[r])
				changed = true
			}
		}
	}
	return keep, frontiers
}

// frontier computes C[r] over the kept prefix: one below the rank's own
// clock at the last kept flush mark, or MaxUint64 for a fully intact record
// (its replay regenerates every send, recorded receives and the
// deterministic continuation alike). The mark's clock M was sampled when
// the cut's last MF call returned; everything the rank did at a clock
// below M precedes that return, but a send at clock M itself may follow
// failed tests past the cut, which a replay runs live. Received epoch
// clocks are folded in as they are (the receive of clock c leaves the
// clock above c); they are the only bound for records whose marks carry no
// sample.
func frontier(segs []SegmentSummary, keep int, base uint64, intact bool) uint64 {
	if intact && keep == len(segs) {
		return math.MaxUint64
	}
	c := base
	for _, s := range segs[:keep] {
		if s.Clock > 0 && s.Clock-1 > c {
			c = s.Clock - 1
		}
		for _, e := range s.Refs {
			if e.Clock > c {
				c = e.Clock
			}
		}
	}
	return c
}

// firstViolation returns the index of the first kept segment that
// references a sender clock beyond that sender's frontier, or that passed a
// collective some rank's frontier does not reach, or keep when the whole
// kept prefix is consistent.
func firstViolation(segs []SegmentSummary, keep int, frontiers []uint64) int {
	for i, s := range segs[:keep] {
		if s.Coll > 0 {
			for _, f := range frontiers {
				if s.Coll-1 > f {
					return i
				}
			}
		}
		for _, e := range s.Refs {
			if int(e.Rank) < len(frontiers) && e.Clock > frontiers[e.Rank] {
				return i
			}
		}
	}
	return keep
}

// WriteSegments re-emits kept frames verbatim into a fresh record blob
// (magic, one gzip stream, cleanly closed with the last kept flush clock
// and collective clock), byte-identical to what the pre-Store salvage
// wrote. It returns the blob size and closing clock, which with the plan's
// EventsKept form the salvaged run's single-cut index entry.
func WriteSegments(w io.Writer, segs []*Segment) (n int64, lastClock uint64, err error) {
	fw, err := core.NewFrameWriter(w, 0, false)
	if err != nil {
		return 0, 0, err
	}
	var lastColl uint64
	for _, s := range segs {
		for _, frame := range s.Frames {
			if err := fw.WriteFrame(frame.Kind, frame.Payload); err != nil {
				return fw.BytesWritten(), 0, err
			}
		}
		lastClock, lastColl = s.Clock, s.Coll
	}
	if err := fw.Close(lastClock, lastColl); err != nil {
		return fw.BytesWritten(), lastClock, err
	}
	return fw.BytesWritten(), lastClock, nil
}

// SalvageTo recovers src's consistent prefix (see PlanSalvage) into dst
// using only the Store API, so any backend can be the source or the
// destination. dst is created from src's manifest; each rank's kept
// segments are re-emitted into a fresh blob that is synced, committed as
// the rank's single final cut and closed; then the run is published
// Complete+Salvaged in one manifest write. Every rank blob is on stable
// storage before that publish, so the salvaged manifest never names bytes
// a power loss could take back. A complete src is left alone: the report
// is nil and dst is untouched.
func SalvageTo(src, dst Store) (*SalvageReport, error) {
	m, err := src.Manifest()
	if err != nil || m.Complete {
		return nil, err
	}
	plan, err := PlanSalvage(m, func(rank int) (io.ReadCloser, error) { return src.RawRank(rank) })
	if err != nil {
		return nil, err
	}
	if err := dst.Create(m); err != nil {
		return nil, err
	}
	for r := 0; r < m.Ranks; r++ {
		if err := writeSalvagedRank(dst, r, plan.Keep[r], plan.Report.Ranks[r].EventsKept); err != nil {
			return nil, fmt.Errorf("store: writing salvaged rank %d: %w", r, err)
		}
	}
	if m, err = dst.Manifest(); err != nil {
		return nil, err
	}
	m.Complete = true
	m.Salvaged = true
	m.Finished = plan.Finished
	if err := dst.WriteManifest(m); err != nil {
		return nil, err
	}
	return plan.Report, nil
}

// writeSalvagedRank writes one rank's kept segments into a fresh blob of
// dst and commits the whole blob as one cut.
func writeSalvagedRank(dst Store, rank int, segs []*Segment, events uint64) error {
	w, err := dst.CreateRank(rank)
	if err != nil {
		return err
	}
	size, lastClock, err := WriteSegments(w, segs)
	if err == nil {
		err = w.Sync()
	}
	if err == nil {
		err = w.Commit(Cut{Clock: lastClock, Events: events, Offset: size})
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

// SalvageTmpSuffix names the sibling directory a crash-safe in-place
// salvage writes into before swapping it over the damaged run.
const SalvageTmpSuffix = ".salvaged"

// SalvageRoot is the one on-disk Root.SalvageAll sweep. It walks a
// multi-run root (any directory tree holding run directories, e.g.
// root/tenant/run) and recovers in place every incomplete run of the given
// layout, opening each with open:
//
//   - an orphaned <run>.salvaged directory (an in-place swap that crashed
//     between removing the damaged run and renaming the salvaged copy over
//     it) is adopted by finishing the rename;
//   - a run whose manifest is unreadable garbage, or that another layout
//     wrote (a missing layout field reads as LayoutDir), is skipped with a
//     finding, so one damaged or foreign directory never blocks the sweep
//     and no backend rewrites a run it cannot read;
//   - complete runs are left untouched and unreported;
//   - every other run is recovered by open(dir).Salvage().
//
// Results are sorted by Dir, so the report order does not depend on the
// filesystem walk.
func SalvageRoot(root, layout string, open func(dir string) Store) ([]RunSalvage, error) {
	dirs, orphans, err := findRuns(root)
	if err != nil {
		return nil, err
	}
	var out []RunSalvage
	adopted := make(map[string]bool, len(orphans))
	for _, tmp := range orphans {
		dir := strings.TrimSuffix(tmp, SalvageTmpSuffix)
		err := os.Rename(tmp, dir)
		if err == nil {
			err = SyncDir(filepath.Dir(dir))
		}
		if err != nil {
			out = append(out, RunSalvage{Dir: relOrSelf(root, dir), Adopted: true, Err: err})
			continue
		}
		adopted[dir] = true
		dirs = append(dirs, dir)
	}
	for _, dir := range dirs {
		rs := RunSalvage{Dir: relOrSelf(root, dir), Adopted: adopted[dir]}
		m, err := ReadManifestFile(dir)
		got := m.Layout
		if got == "" {
			got = LayoutDir
		}
		switch {
		case errors.Is(err, ErrBadManifest):
			rs.Skipped = true
			rs.Finding = err.Error()
		case err != nil:
			rs.Err = err
		case got != layout:
			rs.Skipped = true
			rs.Finding = fmt.Sprintf("layout %q is not %q; leaving for its own backend", got, layout)
		case m.Complete:
			if !rs.Adopted {
				continue
			}
		default:
			if rs.Report, rs.Err = open(dir).Salvage(); rs.Err != nil {
				rs.Err = fmt.Errorf("store: salvaging %s: %w", dir, rs.Err)
			} else {
				rs.Salvaged = true
			}
		}
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dir < out[j].Dir })
	return out, nil
}

// findRuns locates run directories (holding a manifest) and orphaned
// SalvageTmpSuffix directories under root. A missing root is an empty
// store, not an error, so a first daemon start needs no special casing.
func findRuns(root string) (dirs, orphans []string, err error) {
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if path == root && errors.Is(err, fs.ErrNotExist) {
				return filepath.SkipAll
			}
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if strings.HasSuffix(path, SalvageTmpSuffix) {
			// Orphaned only when the destination vanished; otherwise it is
			// a stale partial salvage the per-run swap will redo.
			if _, serr := os.Stat(strings.TrimSuffix(path, SalvageTmpSuffix)); errors.Is(serr, fs.ErrNotExist) {
				orphans = append(orphans, path)
			}
			return filepath.SkipDir
		}
		if _, serr := os.Stat(filepath.Join(path, ManifestName)); serr == nil {
			dirs = append(dirs, path)
			return filepath.SkipDir
		}
		return nil
	})
	return dirs, orphans, err
}

// relOrSelf returns dir relative to root, or dir itself when no relative
// form exists — run names in RunSalvage reports.
func relOrSelf(root, dir string) string {
	if rel, err := filepath.Rel(root, dir); err == nil {
		return rel
	}
	return dir
}
