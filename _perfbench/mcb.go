package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"cdcreplay/cdc"
	"cdcreplay/internal/mcb"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/store/dirstore"
)

const mcbRanks = 8

// mcbBench is the mcb workload: the paper's Monte Carlo benchmark run
// plain, recorded and replayed, every repetition on the same seed.
type mcbBench struct {
	cfg       config
	dir       string
	params    mcb.Params
	flushRows int
	props     map[string]any
}

func newMCB(cfg config, dir string) (bench, error) {
	b := &mcbBench{
		cfg: cfg,
		dir: dir,
		params: mcb.Params{
			Particles: 1000,
			TimeSteps: 2,
			CrossProb: 0.4,
			Seed:      cfg.seed,
		},
		flushRows: 1024,
		props:     map[string]any{},
	}
	if cfg.scale == "tiny" {
		b.params.Particles = 20
		b.flushRows = 16
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// One untimed plain run lets lazy runtime set-up finish before timing.
	if _, err := b.runPlain(nil, nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

func (b *mcbBench) close() error { return os.RemoveAll(b.dir) }

func (b *mcbBench) inputs() map[string]any { return b.props }

// Network seeds: record and plain share one, replay runs on another.
func (b *mcbBench) recordNet() int64 { return 2*b.cfg.seed + 1 }
func (b *mcbBench) replayNet() int64 { return 2*b.cfg.seed + 2 }

// rankLog collects what each rank's application saw.
type rankLog struct {
	mu   sync.Mutex
	res  [mcbRanks]mcb.Result
	wall [mcbRanks]int64
	mpi  [mcbRanks]*timedMPI
}

// app returns the application body for one mode: mcb.Run behind a
// timedMPI, with a span per rank under parent.
func (b *mcbBench) app(mode string, tr *tracer, probe *storeProbe, parent uint64, log *rankLog) cdc.App {
	return func(rank int, mpi simmpi.MPI) error {
		m := &timedMPI{MPI: mpi, timed: tr != nil}
		sp := tr.start("mcb."+mode+".rank", parent)
		if probe != nil {
			probe.setParent(rank, sp.id)
		}
		t0 := now()
		res, err := mcb.Run(m, b.params)
		wall := now() - t0
		sp.end()
		log.mu.Lock()
		log.res[rank], log.wall[rank], log.mpi[rank] = res, wall, m
		log.mu.Unlock()
		return err
	}
}

// addMPI folds one mode's per-rank MPI timings into the tracer and
// returns the slowest rank's application wall time.
func addMPI(tr *tracer, mode string, log *rankLog) int64 {
	var slowest int64
	for rank, m := range log.mpi {
		if m == nil {
			continue
		}
		for op := 0; op < numOps; op++ {
			tr.add("mpi."+mode+"."+opNames[op]+".ns", float64(m.ns[op]))
			tr.add("mpi."+mode+"."+opNames[op]+".calls", float64(m.calls[op]))
		}
		tr.add("app."+mode+".compute.ns", float64(log.wall[rank]-m.mpiNs()))
		if log.wall[rank] > slowest {
			slowest = log.wall[rank]
		}
	}
	return slowest
}

// runPlain runs the app with no tool stack and returns the CPU seconds it
// used.
func (b *mcbBench) runPlain(tr *tracer, reg *obs.Registry, parent uint64) (float64, error) {
	log := &rankLog{}
	w := simmpi.NewWorld(mcbRanks, simmpi.Options{Seed: b.recordNet(), Obs: reg})
	settle()
	sp := tr.start("mcb.plain", parent)
	c0, t0 := cpuNow(), now()
	err := w.RunRanked(b.app("plain", tr, nil, sp.id, log))
	cpu, wall := cpuSince(c0), now()-t0
	sp.end()
	if tr != nil {
		tr.add("wall.plain.ns", float64(wall))
		tr.add("remainder.plain.ns", float64(wall-addMPI(tr, "plain", log)))
	}
	return cpu, err
}

func (b *mcbBench) rep(tr *tracer, n int) repOut {
	out := repOut{values: make(map[string]float64)}
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	root := tr.start("mcb.rep", 0)
	defer root.end()
	dir := filepath.Join(b.dir, "rep"+strconv.Itoa(n))
	defer os.RemoveAll(dir)

	plain, err := b.runPlain(tr, reg, root.id)
	if err != nil {
		out.err = fmt.Errorf("plain: %w", err)
		return out
	}
	out.values["plain_s"] = plain

	// Record.
	probe := newStoreProbe(tr)
	recLog := &rankLog{}
	opts := []cdc.Option{
		cdc.WithStore(probedStore{Store: dirstore.New(dir), p: probe}),
		cdc.WithApp("mcb"),
		cdc.WithFlushEveryRows(b.flushRows),
	}
	if reg != nil {
		opts = append(opts, cdc.WithObs(reg))
	}
	w := simmpi.NewWorld(mcbRanks, simmpi.Options{Seed: b.recordNet(), Obs: reg})
	settle()
	sp := tr.start("mcb.record", root.id)
	createNs, finalizeNs := tr.get("store.create.ns"), tr.get("store.finalize.ns")
	c0, t0 := cpuNow(), now()
	report, err := cdc.Record(w, b.app("record", tr, probe, sp.id, recLog), opts...)
	recordCPU, recordNs := cpuSince(c0), now()-t0
	sp.end()
	if err != nil {
		out.err = fmt.Errorf("record: %w", err)
		return out
	}
	out.values["record_s"] = recordCPU
	var matched, rows, unmatched, permuted uint64
	var sent uint64
	for rank, rr := range report.Ranks {
		matched += rr.Encoder.MatchedEvents
		rows += rr.Encoder.Rows
		unmatched += rr.Encoder.UnmatchedTests
		permuted += rr.Encoder.PermutedMessages
		sent += recLog.res[rank].Sent
		if got := recLog.mpi[rank].received; got != rr.Encoder.MatchedEvents {
			out.err = fmt.Errorf("rank %d: application saw %d receives, recorder %d matched events", rank, got, rr.Encoder.MatchedEvents)
			return out
		}
	}
	if matched == 0 {
		out.err = errors.New("record: no matched events")
		return out
	}
	out.values["bytes_per_event"] = float64(report.TotalBytes()) / float64(matched)
	if tr != nil {
		slowest := addMPI(tr, "record", recLog)
		store := tr.get("store.create.ns") - createNs + tr.get("store.finalize.ns") - finalizeNs
		tr.add("wall.record.ns", float64(recordNs))
		tr.add("remainder.record.ns", float64(recordNs-slowest)-store)
		for rank, rr := range report.Ranks {
			tr.add("record.drain.ns", float64(rr.Queue.DrainDuration.Nanoseconds()))
			tr.add("record.produce.ns", float64(recLog.wall[rank]))
		}
	}

	// Replay on a different network seed.
	repLog := &rankLog{}
	ropts := []cdc.Option{cdc.WithStore(probedStore{Store: dirstore.New(dir), p: probe}), cdc.WithApp("mcb")}
	if reg != nil {
		ropts = append(ropts, cdc.WithObs(reg))
	}
	w2 := simmpi.NewWorld(mcbRanks, simmpi.Options{Seed: b.replayNet(), Obs: reg})
	settle()
	sp = tr.start("mcb.replay", root.id)
	c0, t0 = cpuNow(), now()
	rrep, err := cdc.Replay(w2, b.app("replay", tr, nil, sp.id, repLog), ropts...)
	replayCPU, replayNs := cpuSince(c0), now()-t0
	sp.end()
	if err != nil {
		out.err = fmt.Errorf("replay: %w", err)
		return out
	}
	out.values["replay_s"] = replayCPU
	if tr != nil {
		tr.add("wall.replay.ns", float64(replayNs))
		tr.add("remainder.replay.ns", float64(replayNs-addMPI(tr, "replay", repLog)))
	}
	for rank := 0; rank < mcbRanks; rank++ {
		got, want := repLog.res[rank], recLog.res[rank]
		if math.Float64bits(got.Tally) != math.Float64bits(want.Tally) ||
			math.Float64bits(got.GlobalTally) != math.Float64bits(want.GlobalTally) {
			out.err = fmt.Errorf("replay: rank %d tally %v/%v, recorded %v/%v",
				rank, got.Tally, got.GlobalTally, want.Tally, want.GlobalTally)
			return out
		}
	}
	if rel := rrep.Released(); rel != matched {
		out.err = fmt.Errorf("replay released %d events, recorded %d", rel, matched)
		return out
	}

	// Full read-back through the facade reader (serial, the default).
	stores := []cdc.Store{probedStore{Store: dirstore.New(dir), p: probe}}
	events, _, secs, err := timedReadBack(stores, mcbRanks, tr, root.id, float64(report.TotalBytes()))
	if err != nil {
		out.err = fmt.Errorf("decode: %w", err)
		return out
	}
	if events != matched {
		out.err = fmt.Errorf("decode: read %d events, recorded %d", events, matched)
		return out
	}
	out.values["decode_s"] = secs
	if tr != nil {
		tr.addObs(reg.Snapshot())
	}

	b.props = map[string]any{
		"ranks":                mcbRanks,
		"particles_per_rank":   b.params.Particles,
		"time_steps":           b.params.TimeSteps,
		"flush_every_rows":     b.flushRows,
		"matched_events":       matched,
		"rows":                 rows,
		"permuted_share_pct":   100 * float64(permuted) / float64(matched),
		"unmatched_test_share": float64(unmatched) / float64(unmatched+matched),
		"messages":             sent,
		"commits":              probe.commits.Load(),
		"record_bytes":         report.TotalBytes(),
		"layout":               report.Layout,
		"record_network_seed":  b.recordNet(),
		"replay_network_seed":  b.replayNet(),
	}
	return out
}
