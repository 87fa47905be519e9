package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cdcreplay/cdc"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/obs/obshttp"
)

// cmdFeed plays one rank's record as a live-paced feed on stdout, one line
// per release. It is the terminal twin of the obshttp /feed route: the same
// events, human-formatted (or NDJSON with -json), plus an optional -http
// address that serves /feed and /metrics for the run's duration.
func cmdFeed(args []string) int {
	fs := flag.NewFlagSet("feed", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit one NDJSON object per release")
	rank := fs.Int("rank", 0, "rank whose record to stream")
	rate := fs.Float64("rate", 1, "sim rate: recorded seconds per feed second")
	maxRate := fs.Bool("max", false, "release without pacing waits (overrides -rate)")
	interval := fs.Duration("interval", time.Millisecond, "feed time per recorded clock tick at 1x")
	start := fs.Int("start", 0, "epoch boundary to start from (0 = record head)")
	httpAddr := fs.String("http", "", "also serve /feed and /metrics on this address")
	quiet := fs.Bool("quiet", false, "suppress per-event lines; print only the summary")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cdcinspect feed [-json] [-rank N] [-rate R | -max] [-interval D] [-start E] [-http addr] [-quiet] <record-dir>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	reg := obs.NewRegistry()
	feedRate := *rate
	if *maxRate {
		feedRate = cdc.FeedRateMax
	}
	f, err := cdc.OpenFeed(
		cdc.WithDir(fs.Arg(0)),
		cdc.WithFeedRank(*rank),
		cdc.WithFeedRate(feedRate),
		cdc.WithFeedInterval(*interval),
		cdc.WithStartEpoch(*start),
		cdc.WithObs(reg),
	)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdcinspect: feed: %v\n", err)
		return 1
	}
	defer f.Close()

	if *httpAddr != "" {
		addr, shutdown, err := obshttp.ServeFeed(*httpAddr, reg.Snapshot, f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cdcinspect: feed: -http: %v\n", err)
			return 1
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "cdcinspect: serving /feed and /metrics on http://%s\n", addr)
	}

	sub, err := f.Subscribe()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cdcinspect: feed: %v\n", err)
		return 1
	}
	code := 0
	for {
		ev, ok := sub.Recv()
		if !ok {
			break
		}
		if ev.Kind == cdc.FeedEnd && ev.Err != "" {
			fmt.Fprintf(os.Stderr, "cdcinspect: feed ended with error: %s\n", ev.Err)
			code = 1
		}
		if *quiet {
			continue
		}
		if *jsonOut {
			emitFeedJSON(ev)
			continue
		}
		printFeedEvent(ev)
	}
	s := f.Stats()
	fmt.Fprintf(os.Stderr, "cdcinspect: feed done: %d releases over %d epochs (%d drops)\n",
		s.Released, s.Epochs, s.Drops)
	return code
}

// feedEventJSON mirrors the obshttp /feed line shape so piped tooling can
// treat the two sources interchangeably.
type feedEventJSON struct {
	Seq        uint64 `json:"seq"`
	Kind       string `json:"kind"`
	Epoch      int    `json:"epoch"`
	Clock      uint64 `json:"clock,omitempty"`
	DueNs      int64  `json:"due_unix_ns,omitempty"`
	AtNs       int64  `json:"at_unix_ns"`
	FrameKind  uint8  `json:"frame_kind,omitempty"`
	FrameBytes int    `json:"frame_bytes,omitempty"`
	Dropped    uint64 `json:"dropped,omitempty"`
	Err        string `json:"err,omitempty"`
}

func emitFeedJSON(ev cdc.FeedEvent) {
	l := feedEventJSON{
		Seq:     ev.Seq,
		Kind:    ev.Kind.String(),
		Epoch:   ev.Epoch,
		Clock:   ev.Clock,
		AtNs:    ev.At.UnixNano(),
		Dropped: ev.Dropped,
		Err:     ev.Err,
	}
	if !ev.Due.IsZero() {
		l.DueNs = ev.Due.UnixNano()
	}
	if ev.Frame != nil {
		l.FrameKind = ev.Frame.Kind
		l.FrameBytes = len(ev.Frame.Payload)
	}
	emitJSON(l)
}

func printFeedEvent(ev cdc.FeedEvent) {
	at := ev.At.Format("15:04:05.000")
	switch ev.Kind {
	case cdc.FeedFlush:
		fmt.Printf("%s  #%-6d epoch %d  flush clock=%d\n", at, ev.Seq, ev.Epoch, ev.Clock)
	case cdc.FeedFrame:
		fmt.Printf("%s  #%-6d epoch %d  frame kind=%d bytes=%d\n",
			at, ev.Seq, ev.Epoch, ev.Frame.Kind, len(ev.Frame.Payload))
	case cdc.FeedSeek:
		fmt.Printf("%s  #%-6d seek -> epoch %d\n", at, ev.Seq, ev.Epoch)
	case cdc.FeedGap:
		fmt.Printf("%s  #%-6d gap: %d releases dropped\n", at, ev.Seq, ev.Dropped)
	case cdc.FeedEnd:
		if ev.Err != "" {
			fmt.Printf("%s  #%-6d end (error: %s)\n", at, ev.Seq, ev.Err)
		} else {
			fmt.Printf("%s  #%-6d end\n", at, ev.Seq)
		}
	}
}
