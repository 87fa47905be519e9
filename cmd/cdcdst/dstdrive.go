package main

import (
	"fmt"
	"os"
	"path/filepath"

	"cdcreplay/internal/dst"
)

// explore drives one schedule-exploration run: it explores, prints a
// summary, and for every captured failure writes a replayable trace file
// (both the full and the shrunk schedule) plus the exact repro command.
// traceDir == "" skips trace files. The returned report is the caller's exit
// status: any TotalFailures > 0 is a red run.
func explore(dcfg dst.Config, traceDir string) (*dst.Report, error) {
	if dcfg.Logf == nil {
		dcfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	rep, err := dst.Explore(dcfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("\npolicy=%s workload=%s: %d schedules, %d decisions, digest %016x\n",
		rep.Policy, rep.Workload, rep.Schedules, rep.Decisions, rep.Digest)
	if rep.TotalFailures == 0 {
		fmt.Printf("all explored schedules satisfy the enabled properties\n")
		return rep, nil
	}
	fmt.Printf("%d failing schedule(s), %d captured:\n", rep.TotalFailures, len(rep.Failures))
	for i, f := range rep.Failures {
		fmt.Printf("  [%d] %s\n      %s\n      shrunk %d -> %d decisions: %v\n",
			i, f.Trace, f.Err, len(f.Trace.Decisions), len(f.Shrunk), f.Shrunk)
		if traceDir == "" {
			continue
		}
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return rep, err
		}
		full := filepath.Join(traceDir, fmt.Sprintf("fail-%02d.trace", i))
		if err := f.Trace.WriteFile(full); err != nil {
			return rep, err
		}
		shrunkTrace := *f.Trace
		shrunkTrace.Decisions = f.Shrunk
		small := filepath.Join(traceDir, fmt.Sprintf("fail-%02d.shrunk.trace", i))
		if err := shrunkTrace.WriteFile(small); err != nil {
			return rep, err
		}
		fmt.Printf("      repro: go run ./cmd/cdcdst -repro %s   (shrunk: %s)\n", full, small)
	}
	return rep, nil
}

// reproTrace replays a trace file written by explore and reports whether it
// still fails (err non-nil).
func reproTrace(path string) error {
	tr, err := dst.ReadTraceFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("replaying trace: %s\n", tr)
	if rerr := dst.Repro(tr); rerr != nil {
		return fmt.Errorf("trace reproduces the failure: %w", rerr)
	}
	fmt.Printf("trace no longer fails\n")
	return nil
}
