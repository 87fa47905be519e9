package harness

import (
	"io"

	"cdcreplay/internal/baseline"
	"cdcreplay/internal/core"
	"cdcreplay/internal/mcb"
)

// MethodSize is one bar of paper Fig. 13.
type MethodSize struct {
	Name string
	// Bytes is the total record size across ranks.
	Bytes int64
	// BytesPerEvent is Bytes divided by the matched-event count.
	BytesPerEvent float64
	// RatioVsRaw is raw size / this size (the paper's compression rate).
	RatioVsRaw float64
}

// Fig13Result reproduces paper Fig. 13 (total compressed record sizes on
// MCB) plus the §6.1 headline ratios.
type Fig13Result struct {
	Ranks         int
	MatchedEvents uint64
	Methods       []MethodSize
	// CDCvsGzip is the paper's "5.7x higher than gzip" ratio.
	CDCvsGzip float64
	// CDCvsRaw is the paper's "two orders of magnitude" ratio (44.4x with
	// the 162-bit row accounting).
	CDCvsRaw float64
}

// Find returns the entry with the given method name.
func (r *Fig13Result) Find(name string) *MethodSize {
	for i := range r.Methods {
		if r.Methods[i].Name == name {
			return &r.Methods[i]
		}
	}
	return nil
}

// Fig13 captures one MCB run and encodes the identical event stream with
// every compression method of §6.1.
func Fig13(cfg Config) (*Fig13Result, error) {
	cfg.fill()
	ranks := cfg.pick(32, 96)
	run, err := captureMCB(&cfg, ranks, mcb.Params{
		Particles: cfg.pick(250, 800),
		TimeSteps: cfg.pick(3, 4),
		Seed:      cfg.Seed + 13,
	})
	if err != nil {
		return nil, err
	}
	return fig13FromRun(&cfg, run)
}

func fig13FromRun(cfg *Config, run *MCBRun) (*Fig13Result, error) {
	makeCDC := func(senderColumn bool) func() baseline.Method {
		return func() baseline.Method {
			enc, _ := core.NewEncoder(io.Discard, core.EncoderOptions{
				OmitSenderColumn: !senderColumn,
			})
			return enc
		}
	}
	methods := []struct {
		name string
		make func() baseline.Method
		// merge feeds the stream with every callsite folded into one.
		merge bool
	}{
		{"w/o compression", func() baseline.Method { return baseline.NewRaw() }, false},
		{"gzip", func() baseline.Method { return baseline.NewGzip() }, false},
		{"CDC (RE)", func() baseline.Method { return baseline.NewRE(0) }, false},
		{"CDC (RE + PE + LPE)", makeCDC(false), true},
		{"CDC", makeCDC(false), false},
		{"CDC (+sender column)", makeCDC(true), false},
	}

	res := &Fig13Result{Ranks: run.Ranks, MatchedEvents: run.MatchedEvents()}
	for _, m := range methods {
		var total int64
		// One method instance per rank: each rank records independently.
		for _, rows := range run.Rows {
			if m.merge {
				rows = merged(rows)
			}
			n, err := feed(m.make(), rows)
			if err != nil {
				return nil, err
			}
			total += n
		}
		ms := MethodSize{Name: m.name, Bytes: total}
		if res.MatchedEvents > 0 {
			ms.BytesPerEvent = float64(total) / float64(res.MatchedEvents)
		}
		res.Methods = append(res.Methods, ms)
	}
	raw := res.Methods[0].Bytes
	for i := range res.Methods {
		if res.Methods[i].Bytes > 0 {
			res.Methods[i].RatioVsRaw = float64(raw) / float64(res.Methods[i].Bytes)
		}
	}
	if g, c := res.Find("gzip"), res.Find("CDC"); g != nil && c != nil && c.Bytes > 0 {
		res.CDCvsGzip = float64(g.Bytes) / float64(c.Bytes)
		res.CDCvsRaw = c.RatioVsRaw
	}

	cfg.printf("Figure 13: total record sizes, MCB at %d processes (%d receive events)\n",
		res.Ranks, res.MatchedEvents)
	for _, m := range res.Methods {
		cfg.printf("  %-22s %12s  (%7.3f B/event, %6.1fx vs raw)\n",
			m.Name, human(m.Bytes), m.BytesPerEvent, m.RatioVsRaw)
	}
	cfg.printf("  CDC compression rate: %.1fx vs raw, %.1fx vs gzip (paper: 44.4x, 5.7x)\n",
		res.CDCvsRaw, res.CDCvsGzip)
	return res, nil
}
