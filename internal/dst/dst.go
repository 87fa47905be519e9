// Package dst is a deterministic schedule-exploration harness (DST) for the
// record/replay pipeline: it takes control of simmpi's delivery and
// scheduling nondeterminism through a pluggable Policy, executes the
// pipeline's replay theorems as runtime properties (P1 replay order, P2
// byte-identical re-record, P3 order-oblivious decode, P4
// crash-salvage-replay) across many schedules, and captures every failing
// schedule as a compact replayable Trace that it then shrinks with
// delta debugging.
//
// The design follows the DST tradition of SQLite's TH3 / FoundationDB-style
// simulation testing: all nondeterminism funnels through one seeded decision
// sequence, so any observed failure is a pure function of (policy, seed,
// decisions) and replays exactly. Scheduling policies include a uniformly
// random walk, PCT-style priority scheduling (arXiv:cs/0011006 lineage via
// Burckhardt et al.), a bounded-reorder delivery adversary, and an
// exhaustive sweep over all decision prefixes up to a depth
// (arXiv:2311.07842 surveys the state space this walks).
package dst

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
)

// maxCorpusChunks bounds Report.Corpus so corpus collection cannot balloon.
const maxCorpusChunks = 256

// maxFailures caps how many failures are captured and shrunk; later
// failures are still counted and digested.
const maxFailures = 4

// Config parameterizes one exploration run.
type Config struct {
	// Policy is the exploration policy: "random", "pct", "reorder", or
	// "exhaustive" (see PolicyNames). Default "random".
	Policy string
	// Workload names the application under test (see WorkloadNames).
	// Default "pairs".
	Workload string
	// Ranks is the world size; 0 uses the workload's default.
	Ranks int
	// Seeds is how many schedules the seeded policies explore (ignored by
	// "exhaustive"). Default 16.
	Seeds int
	// Seed is the base schedule seed; schedule i uses Seed+i.
	Seed int64
	// Depth is the policy depth knob: reorder delay bound, PCT change
	// points, exhaustive decision depth. 0 picks a per-policy default.
	Depth int
	// Props selects the properties to check, a subset of "p1".."p4".
	// Empty checks all four.
	Props []string
	// Short runs reduced workload sizes (mirrors go test -short).
	Short bool
	// MaxSchedules caps the exhaustive sweep. Default 512; the report log
	// says when the cap truncates the sweep.
	MaxSchedules int
	// ShrinkBudget bounds re-executions per failure during shrinking.
	// Default 200.
	ShrinkBudget int
	// CollectCorpus gathers canonical marshaled chunk bytes from decoded
	// records into Report.Corpus (fuzz-corpus seeding). Requires P3.
	CollectCorpus bool
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.Policy == "" {
		c.Policy = "random"
	}
	if c.Workload == "" {
		c.Workload = "pairs"
	}
	wl, err := workloadFor(c.Workload)
	if err != nil {
		return err
	}
	if c.Ranks == 0 {
		c.Ranks = wl.ranks
	}
	if c.Ranks < 2 {
		return fmt.Errorf("dst: need at least 2 ranks, have %d", c.Ranks)
	}
	if c.Seeds <= 0 {
		c.Seeds = 16
	}
	if c.Depth <= 0 {
		switch c.Policy {
		case "exhaustive":
			c.Depth = 4
		default:
			c.Depth = 3
		}
	}
	if c.MaxSchedules <= 0 {
		c.MaxSchedules = 512
	}
	if c.ShrinkBudget <= 0 {
		c.ShrinkBudget = 200
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

func parseProps(names []string) (propSet, error) {
	if len(names) == 0 {
		return propSet{p1: true, p2: true, p3: true, p4: true}, nil
	}
	var p propSet
	for _, n := range names {
		switch strings.ToLower(strings.TrimSpace(n)) {
		case "p1":
			p.p1 = true
		case "p2":
			p.p2 = true
		case "p3":
			p.p3 = true
		case "p4":
			p.p4 = true
		default:
			return p, fmt.Errorf("dst: unknown property %q (want p1..p4)", n)
		}
	}
	return p, nil
}

// propsForCheck maps a trace's experiment kind back to the property set its
// replay re-executes.
func propsForCheck(check string) propSet {
	if check == "crash" {
		return propSet{p4: true}
	}
	return propSet{p1: true, p2: true, p3: true}
}

// Failure is one captured failing schedule.
type Failure struct {
	// Trace replays the failure exactly (see Repro).
	Trace *Trace
	// Err is the property violation message.
	Err string
	// Shrunk is the minimized decision list: substituting it for
	// Trace.Decisions still fails.
	Shrunk []int
}

// Report summarizes one exploration run. Two runs with the same Config
// produce identical reports — including Digest, which covers every
// schedule's decision stream and verdict — which is itself one of the
// harness's tested invariants (the determinism pin).
type Report struct {
	Policy   string
	Workload string
	// Schedules is the number of experiment executions (order and crash
	// count separately).
	Schedules int
	// Decisions is the total scheduling decisions taken across schedules.
	Decisions uint64
	// Digest fingerprints every schedule's (kind, decisions, verdict).
	Digest uint64
	// TotalFailures counts all failing schedules; Failures holds the first
	// maxFailures of them, shrunk.
	TotalFailures int
	Failures      []Failure
	// Corpus holds deduplicated canonical chunk encodings observed during
	// P3 decoding, when CollectCorpus is set.
	Corpus [][]byte
}

// Explore runs the configured exploration and returns its report. Errors are
// infrastructure problems (bad config); property violations are reported as
// Failures, not as an error.
func Explore(cfg Config) (*Report, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	props, err := parseProps(cfg.Props)
	if err != nil {
		return nil, err
	}
	if cfg.CollectCorpus && !props.p3 {
		return nil, fmt.Errorf("dst: corpus collection needs property p3 enabled")
	}
	wl, err := workloadFor(cfg.Workload)
	if err != nil {
		return nil, err
	}

	rep := &Report{Policy: cfg.Policy, Workload: cfg.Workload}
	h := fnv.New64a()
	hashSched := func(check string, decisions []int, verdict error) {
		io.WriteString(h, check)
		var buf [8]byte
		for _, d := range decisions {
			binary.LittleEndian.PutUint64(buf[:], uint64(d))
			h.Write(buf[:])
		}
		if verdict != nil {
			io.WriteString(h, "FAIL:"+verdict.Error())
		} else {
			io.WriteString(h, "ok")
		}
		h.Write([]byte{0xff})
	}

	var corpusSeen map[string]struct{}
	var corpus func([]byte)
	if cfg.CollectCorpus {
		corpusSeen = map[string]struct{}{}
		corpus = func(b []byte) {
			if len(rep.Corpus) >= maxCorpusChunks {
				return
			}
			if _, ok := corpusSeen[string(b)]; ok {
				return
			}
			corpusSeen[string(b)] = struct{}{}
			rep.Corpus = append(rep.Corpus, append([]byte(nil), b...))
		}
	}

	capture := func(check string, seed int64, decisions []int, verdict error) {
		rep.TotalFailures++
		if len(rep.Failures) >= maxFailures {
			return
		}
		tr := &Trace{
			Policy: cfg.Policy, Seed: seed, Depth: cfg.Depth, Ranks: cfg.Ranks,
			Workload: cfg.Workload, Check: check, Short: cfg.Short,
			Decisions: append([]int(nil), decisions...),
		}
		cfg.Logf("dst: FAIL [%s] %v", tr, verdict)
		shrunk := Shrink(tr.Decisions, func(cand []int) bool {
			return replayFails(tr, cand)
		}, cfg.ShrinkBudget)
		cfg.Logf("dst: shrunk %d -> %d decisions", len(tr.Decisions), len(shrunk))
		rep.Failures = append(rep.Failures, Failure{Trace: tr, Err: verdict.Error(), Shrunk: shrunk})
	}

	// runOne executes the enabled experiments for one schedule, returning
	// the primary experiment's decisions and runnable counts (the
	// exhaustive odometer's base).
	runOne := func(mk func() (Policy, error), seed int64) ([]int, []int, error) {
		var primaryDec, primaryCnt []int
		if props.order() {
			pol, err := mk()
			if err != nil {
				return nil, nil, err
			}
			dec, cnt, verdict := runOrder(expParams{
				wl: wl, ranks: cfg.Ranks, short: cfg.Short, seed: seed,
				depth: cfg.Depth, policy: pol,
				delivery: deliveryFor(cfg.Policy, seed, cfg.Depth),
				props:    props, corpus: corpus,
			})
			rep.Schedules++
			rep.Decisions += uint64(len(dec))
			hashSched("order", dec, verdict)
			if verdict != nil {
				capture("order", seed, dec, verdict)
			}
			primaryDec, primaryCnt = dec, cnt
		}
		if props.p4 {
			pol, err := mk()
			if err != nil {
				return nil, nil, err
			}
			dec, cnt, verdict := runCrash(expParams{
				wl: wl, ranks: cfg.Ranks, short: cfg.Short, seed: seed,
				depth: cfg.Depth, policy: pol,
				delivery: deliveryFor(cfg.Policy, seed, cfg.Depth),
				props:    propSet{p4: true},
			})
			rep.Schedules++
			rep.Decisions += uint64(len(dec))
			hashSched("crash", dec, verdict)
			if verdict != nil {
				capture("crash", seed, dec, verdict)
			}
			if primaryDec == nil {
				primaryDec, primaryCnt = dec, cnt
			}
		}
		return primaryDec, primaryCnt, nil
	}

	if cfg.Policy == "exhaustive" {
		prefix := []int{}
		for sched := 0; sched < cfg.MaxSchedules; sched++ {
			pfx := append([]int(nil), prefix...)
			dec, cnt, err := runOne(func() (Policy, error) {
				return &prefixPolicy{prefix: pfx}, nil
			}, cfg.Seed)
			if err != nil {
				return nil, err
			}
			prefix = nextPrefix(dec, cnt, cfg.Depth)
			if prefix == nil {
				cfg.Logf("dst: exhaustive depth-%d sweep complete after %d schedules", cfg.Depth, sched+1)
				break
			}
		}
		if prefix != nil {
			cfg.Logf("dst: exhaustive sweep TRUNCATED at MaxSchedules=%d (raise -depth budget deliberately)", cfg.MaxSchedules)
		}
	} else {
		for i := 0; i < cfg.Seeds; i++ {
			seed := cfg.Seed + int64(i)
			if _, _, err := runOne(func() (Policy, error) {
				return policyFor(cfg.Policy, seed, cfg.Ranks, cfg.Depth)
			}, seed); err != nil {
				return nil, err
			}
		}
	}
	rep.Digest = h.Sum64()
	cfg.Logf("dst: %d schedules, %d decisions, %d failure(s), digest %016x",
		rep.Schedules, rep.Decisions, rep.TotalFailures, rep.Digest)
	return rep, nil
}

// runTrace re-executes a trace's experiment with the given decision list
// under the playback policy (the trace's own decisions, or a shrinking
// candidate). It returns the executed decisions/counts and the property
// verdict.
func runTrace(tr *Trace, decisions []int) ([]int, []int, error) {
	wl, err := workloadFor(tr.Workload)
	if err != nil {
		return nil, nil, err
	}
	p := expParams{
		wl: wl, ranks: tr.Ranks, short: tr.Short, seed: tr.Seed,
		depth: tr.Depth, policy: &playbackPolicy{decisions: decisions},
		delivery: deliveryFor(tr.Policy, tr.Seed, tr.Depth),
		props:    propsForCheck(tr.Check),
	}
	if tr.Check == "crash" {
		return runCrash(p)
	}
	return runOrder(p)
}

// replayFails reports whether re-executing tr with a substituted decision
// list still violates a property — the Shrink predicate.
func replayFails(tr *Trace, decisions []int) bool {
	_, _, verdict := runTrace(tr, decisions)
	return verdict != nil
}

// Repro re-executes a captured trace once and returns the property violation
// it reproduces (nil if the trace now passes).
func Repro(tr *Trace) error {
	if tr.Ranks < 2 {
		return fmt.Errorf("dst: trace needs at least 2 ranks, has %d", tr.Ranks)
	}
	_, _, verdict := runTrace(tr, tr.Decisions)
	return verdict
}
