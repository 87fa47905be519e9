package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
)

// This file holds the per-rank index journal, the append-only half of an
// on-disk run's commit record. manifest.json is rewritten only at
// lifecycle points (Create, Finalize, Reopen, MarkFinished,
// WriteManifest, Salvage, Compact); between them every BlobWriter.Commit
// appends one fixed-size, CRC-sealed record to its rank's journal and
// fsyncs it, so a commit costs the same at the first cut as at the
// ten-thousandth and takes no lock shared with other ranks. Readers of an
// incomplete run fold the journals into the manifest's chunk index
// (LoadManifest); Finalize publishes the folded index as the Complete
// manifest and removes the journals.
//
// A journal record is JournalRecordSize bytes, little-endian:
//
//	epoch  uint64  1-based cut ordinal within the rank's index
//	clock  uint64  IndexEntry.Clock
//	events uint64  IndexEntry.Events (cumulative)
//	offset uint64  IndexEntry.Offset (blob-absolute)
//	crc    uint32  CRC-32C of the 32 bytes above
//
// A crash mid-append leaves a short or CRC-bad last record, and reading
// stops there. Folding appends a record only when its epoch is the next
// one the index lacks, so a journal whose epochs a manifest already
// carries (Compact and shard registration publish folded indexes while
// writers keep appending) adds nothing the second time.

// JournalRecordSize is the byte size of one index journal record.
const JournalRecordSize = 36

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// JournalPath returns rank's index journal path inside run directory dir.
func JournalPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%04d.idx", rank))
}

// encodeJournalRecord renders e as one journal record into buf.
func encodeJournalRecord(buf *[JournalRecordSize]byte, e IndexEntry) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(e.Epoch))
	binary.LittleEndian.PutUint64(buf[8:], e.Clock)
	binary.LittleEndian.PutUint64(buf[16:], e.Events)
	binary.LittleEndian.PutUint64(buf[24:], uint64(e.Offset))
	binary.LittleEndian.PutUint32(buf[32:], crc32.Checksum(buf[:32], journalCRC))
}

// DecodeJournal parses journal bytes into entries, stopping at the first
// short or CRC-bad record: the intact prefix is len(entries) records.
func DecodeJournal(buf []byte) []IndexEntry {
	var out []IndexEntry
	for len(buf) >= JournalRecordSize {
		rec := buf[:JournalRecordSize]
		if crc32.Checksum(rec[:32], journalCRC) != binary.LittleEndian.Uint32(rec[32:]) {
			break
		}
		out = append(out, IndexEntry{
			Epoch:  int(binary.LittleEndian.Uint64(rec[0:])),
			Clock:  binary.LittleEndian.Uint64(rec[8:]),
			Events: binary.LittleEndian.Uint64(rec[16:]),
			Offset: int64(binary.LittleEndian.Uint64(rec[24:])),
		})
		buf = buf[JournalRecordSize:]
	}
	return out
}

// FoldJournal appends to rank's index every journal entry that continues
// it: entries whose epoch the index already holds are skipped, and the
// fold stops at the first entry that would leave a gap. Folding the same
// entries twice therefore changes nothing the second time.
func FoldJournal(m *Manifest, rank int, entries []IndexEntry) {
	for _, e := range entries {
		have := len(m.RankIndex(rank))
		if e.Epoch > have+1 {
			return
		}
		if e.Epoch == have+1 {
			m.AppendIndex(rank, e)
		}
	}
}

// LoadManifest reads run directory dir's commit record: manifest.json and,
// unless the run is Complete, every rank's index journal folded into the
// chunk index. A Complete manifest is the whole record — Finalize folded
// every journal into it — so journals beside it are crash leftovers and
// are ignored. Errors are ReadManifestFile's.
func LoadManifest(dir string) (Manifest, error) {
	m, err := ReadManifestFile(dir)
	if err != nil || m.Complete {
		return m, err
	}
	for rank := 0; rank < m.Ranks; rank++ {
		buf, err := os.ReadFile(JournalPath(dir, rank))
		if errors.Is(err, fs.ErrNotExist) {
			continue // not opened yet, or removed by a concurrent Finalize
		}
		if err != nil {
			return m, err
		}
		FoldJournal(&m, rank, DecodeJournal(buf))
	}
	return m, nil
}

// RemoveJournals deletes every index journal in dir and, when any
// existed, fsyncs dir so the removal is durable before whatever the
// caller publishes next.
func RemoveJournals(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "rank*.idx"))
	if err != nil || len(paths) == 0 {
		return err
	}
	for _, p := range paths {
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return SyncDir(dir)
}

// ReopenManifestFile clears dir's Complete marker for appending and
// returns the commit record as it was before. Journals beside a Complete
// manifest are crash leftovers from between Finalize's publish and its
// journal removal; they are removed before the incomplete manifest is
// published, since folding them onto an index they did not build (a
// salvage collapses the index to one cut) would invent epochs.
func ReopenManifestFile(dir string) (Manifest, error) {
	m, err := LoadManifest(dir)
	if err != nil {
		return m, err
	}
	prev := m.Clone()
	if m.Complete {
		if err := RemoveJournals(dir); err != nil {
			return prev, err
		}
	}
	m.Complete = false
	return prev, WriteManifestFile(dir, m)
}

// MarkFinishedFile adds rank to dir's Manifest.Finished. It rewrites the
// manifest as read, leaving any unfolded journals as they are; callers
// serialize it with every other manifest rewrite of the run.
func MarkFinishedFile(dir string, rank int) error {
	m, err := ReadManifestFile(dir)
	if err != nil {
		return err
	}
	i, ok := slices.BinarySearch(m.Finished, rank)
	if ok {
		return nil
	}
	m.Finished = slices.Insert(m.Finished, i, rank)
	return WriteManifestFile(dir, m)
}

// Journal is one rank's open index journal, owned by that rank's
// BlobWriter.
type Journal struct {
	f     *os.File
	epoch int
	buf   [JournalRecordSize]byte
}

// OpenJournal opens rank's index journal in dir for appending, creating
// it if absent. committed is the number of cuts the rank's folded index
// already holds; the first Append is epoch committed+1. A torn tail left
// by a crash mid-append is cut off first, so new records are not hidden
// behind it.
func OpenJournal(dir string, rank, committed int) (*Journal, error) {
	f, err := os.OpenFile(JournalPath(dir, rank), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	buf, err := io.ReadAll(f)
	if intact := len(DecodeJournal(buf)) * JournalRecordSize; err == nil && intact < len(buf) {
		err = f.Truncate(int64(intact))
	}
	if err != nil {
		f.Close() //cdc:allow(errsink) best-effort cleanup; the open error is already propagating
		return nil, err
	}
	return &Journal{f: f, epoch: committed}, nil
}

// Append records e (numbered as the next epoch) and fsyncs the journal:
// once it returns, the cut survives a crash.
func (j *Journal) Append(e IndexEntry) error {
	e.Epoch = j.epoch + 1
	encodeJournalRecord(&j.buf, e)
	if _, err := j.f.Write(j.buf[:]); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.epoch = e.Epoch
	return nil
}

// Close releases the journal file.
func (j *Journal) Close() error { return j.f.Close() }
