// Command cdcdst explores schedules of the record/replay pipeline under a
// deterministic sequencer and checks the pipeline's replay theorems as
// executable properties on every schedule (see DESIGN.md §11):
//
//	P1  replay releases the recorded receive order exactly
//	P2  re-recording during replay is byte-identical (Theorem 1)
//	P3  decoding restores each schedule's own observed order
//	P4  crash-salvage-replay preserves the salvaged prefix
//
// The separate -feed mode runs P6 instead: a live-paced feed seeked to any
// epoch boundary must release exactly the frame stream a batch decode from
// that boundary yields, swept across storage backends and decode widths.
//
// Usage:
//
//	cdcdst -policy random -seeds 64                  # random walk, all props
//	cdcdst -policy reorder -depth 4 -workload mcb    # bounded delivery reorder
//	cdcdst -policy exhaustive -depth 3               # every prefix up to depth
//	cdcdst -feed -workload exchange                  # P6 feed-seek identity sweep
//	cdcdst -repro traces/fail-00.trace               # replay a failing schedule
//	cdcdst -workload pairs -corpus-out internal/cdcformat/testdata/fuzz/FuzzChunkDecode
//
// A red run writes every captured failure as a replayable trace (full and
// shrunk) under -trace-out and prints the repro command, then exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cdcreplay/internal/dst"
)

func main() {
	policy := flag.String("policy", "random", "exploration policy ("+strings.Join(dst.PolicyNames(), "|")+")")
	workload := flag.String("workload", "pairs", "application under test ("+strings.Join(dst.WorkloadNames(), "|")+")")
	seeds := flag.Int("seeds", 64, "schedules to explore (seeded policies)")
	seed := flag.Int64("seed", 1, "base schedule seed")
	depth := flag.Int("depth", 0, "policy depth: reorder delay bound, pct change points, exhaustive decision depth (0 = default)")
	ranks := flag.Int("ranks", 0, "world size (0 = workload default)")
	props := flag.String("props", "", "comma-separated properties to check, e.g. p1,p3 (empty = all)")
	short := flag.Bool("short", false, "reduced workload sizes")
	maxSchedules := flag.Int("max-schedules", 0, "exhaustive sweep cap (0 = default)")
	shrinkBudget := flag.Int("shrink-budget", 0, "re-executions per failure during shrinking (0 = default)")
	traceOut := flag.String("trace-out", "dst-traces", "directory for failing-schedule trace files")
	corpusOut := flag.String("corpus-out", "", "write decoded chunk encodings as Go fuzz seed corpus files into this directory")
	repro := flag.String("repro", "", "replay a trace file instead of exploring")
	feedP6 := flag.Bool("feed", false, "run the P6 feed-seek identity sweep instead of schedule exploration")
	quiet := flag.Bool("q", false, "suppress progress lines (summary only)")
	flag.Parse()

	if *feedP6 {
		rep, err := dst.CheckFeed(dst.FeedConfig{Workload: *workload, Seed: *seed, Short: *short})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdcdst: feed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("P6 feed-seek: %d checks over %d epoch boundaries\n", rep.Checks, rep.Epochs)
		if len(rep.Failures) > 0 {
			for _, f := range rep.Failures {
				fmt.Fprintf(os.Stderr, "  FAIL %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Println("every seeked feed released its batch-replay frame stream exactly")
		return
	}

	if *repro != "" {
		if err := reproTrace(*repro); err != nil {
			fmt.Fprintf(os.Stderr, "cdcdst: %v\n", err)
			os.Exit(1)
		}
		return
	}

	dcfg := dst.Config{
		Policy:        *policy,
		Workload:      *workload,
		Ranks:         *ranks,
		Seeds:         *seeds,
		Seed:          *seed,
		Depth:         *depth,
		Short:         *short,
		MaxSchedules:  *maxSchedules,
		ShrinkBudget:  *shrinkBudget,
		CollectCorpus: *corpusOut != "",
	}
	if *props != "" {
		dcfg.Props = strings.Split(*props, ",")
	}
	if *quiet {
		dcfg.Logf = func(string, ...any) {}
	}

	rep, err := explore(dcfg, *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdcdst: %v\n", err)
		os.Exit(1)
	}
	if *corpusOut != "" {
		n, err := dst.WriteFuzzCorpus(*corpusOut, rep.Corpus)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdcdst: corpus: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d corpus file(s) to %s\n", n, *corpusOut)
	}
	if rep.TotalFailures > 0 {
		os.Exit(1)
	}
}
