// Intensity sweep: Fig. 15-style storage budget planning.
//
// Given a node-local storage budget (e.g. 500 MB of ramdisk), how long can
// an application record its receive order before the budget runs out? The
// answer depends on the recorder's bytes/event and the application's
// communication intensity. This example sweeps intensity multipliers over
// synthetic MCB-like event streams, measures bytes/event for gzip and CDC,
// and prints the recording horizon at the paper's 258 events/sec/process
// rate with 24 processes per node.
//
// Run:
//
//	go run ./examples/intensity-sweep
package main

import (
	"fmt"
	"io"
	"log"

	"cdcreplay/internal/baseline"
	"cdcreplay/internal/core"
	"cdcreplay/internal/workload"
)

const (
	budgetMB     = 500.0
	eventsPerSec = 258.0 // per process, the paper's MCB rate
	procsPerNode = 24
	baseEvents   = 200_000
)

func main() {
	fmt.Printf("node budget %.0f MB, %d procs/node, %.0f events/sec/proc at x1\n\n",
		budgetMB, procsPerNode, eventsPerSec)
	fmt.Printf("%-10s %-6s %14s %16s\n", "intensity", "method", "bytes/event", "budget horizon")
	for _, intensity := range []float64{1, 1.5, 2, 4} {
		events := workload.Stream(workload.MCBLike(baseEvents, intensity, 42))

		gz := baseline.NewGzip()
		for _, ev := range events {
			if err := gz.Observe(0, ev); err != nil {
				log.Fatal(err)
			}
		}
		if err := gz.Close(); err != nil {
			log.Fatal(err)
		}

		enc, err := core.NewEncoder(io.Discard, core.EncoderOptions{OmitSenderColumn: true})
		if err != nil {
			log.Fatal(err)
		}
		for _, ev := range events {
			if err := enc.Observe(0, ev); err != nil {
				log.Fatal(err)
			}
		}
		if err := enc.Close(); err != nil {
			log.Fatal(err)
		}

		matched := 0
		for _, ev := range events {
			if ev.Flag {
				matched++
			}
		}
		for _, m := range []struct {
			name  string
			bytes int64
		}{{"gzip", gz.BytesWritten()}, {"CDC", enc.BytesWritten()}} {
			bpe := float64(m.bytes) / float64(matched)
			ratePerNode := bpe * eventsPerSec * intensity * procsPerNode // B/s
			hours := budgetMB * 1e6 / ratePerNode / 3600
			fmt.Printf("x%-9.1f %-6s %11.3f B %13.1f h\n", intensity, m.name, bpe, hours)
		}
	}
	fmt.Println("\nCDC's flatter growth is what lets a 24-hour run stay inside node-local storage (paper §6.1).")
}
