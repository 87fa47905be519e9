// Command cdcbench regenerates the paper's evaluation tables and figures
// (§6) on the simulated substrate.
//
// Usage:
//
//	cdcbench -exp all            # every experiment at quick scale
//	cdcbench -exp fig13 -full    # one experiment at paper-leaning scale
//
// Experiments: fig1, fig13, fig14, fig15, fig16, fig17, queue, piggyback,
// replay, ablations, all.
package main

import (
	"flag"
	"fmt"
	"os"

	"cdcreplay/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (fig1|fig13|fig14|fig15|fig16|fig17|queue|piggyback|replay|ablations|all)")
	full := flag.Bool("full", false, "paper-leaning scales (slower)")
	seed := flag.Int64("seed", 1, "network noise seed")
	flag.Parse()

	cfg := harness.Config{Out: os.Stdout, Full: *full, Seed: *seed}

	// Every driver prints its table to cfg.Out; only the error matters here.
	runners := []struct {
		name string
		fn   func(harness.Config) error
	}{
		{"fig1", func(c harness.Config) error { _, err := harness.Fig1(c); return err }},
		{"fig13", func(c harness.Config) error { _, err := harness.Fig13(c); return err }},
		{"fig14", func(c harness.Config) error { _, err := harness.Fig14(c); return err }},
		{"fig15", func(c harness.Config) error { _, err := harness.Fig15(c); return err }},
		{"fig16", func(c harness.Config) error { _, err := harness.Fig16(c); return err }},
		{"fig17", func(c harness.Config) error { _, err := harness.Fig17(c); return err }},
		{"queue", func(c harness.Config) error { _, err := harness.QueueRates(c); return err }},
		{"piggyback", func(c harness.Config) error { _, err := harness.PiggybackOverhead(c); return err }},
		{"replay", func(c harness.Config) error { _, err := harness.ReplayValidation(c); return err }},
		{"ablations", func(c harness.Config) error { _, err := harness.Ablations(c); return err }},
	}

	ran := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		if err := r.fn(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "cdcbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "cdcbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
