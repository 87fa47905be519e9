package simmpi

import (
	"strconv"
	"strings"
	"testing"
)

// zeroDelay makes every message arrive at the receiver's next poll (a zero
// MaxJitter means the default jitter).
var zeroDelay = Options{Seed: 1, Delivery: func(dst, src, tag int, seq uint64) uint64 { return 0 }}

// TestMatchingRules pins MPI's matching order on rank 0 of a zero-delay
// world driven by hand. Script steps:
//
//	send SRC TAG DATA   rank SRC sends DATA to rank 0 (arrives at the next poll)
//	poll                rank 0 drains arrivals into its queues
//	post NAME SRC TAG   rank 0 posts Irecv(SRC, TAG); * is the wildcard
//
// want maps each posted receive to the payload it matched ("" = unmatched).
func TestMatchingRules(t *testing.T) {
	cases := []struct {
		name       string
		script     []string
		want       map[string]string
		unexpected int // envelopes left unmatched at the end
	}{
		{
			name: "posted receive takes earliest matching unexpected, skipping other tags",
			script: []string{
				"send 1 5 a", "send 1 7 b", "send 2 7 c", "send 2 5 d", "poll",
				"post r1 * 7", "post r2 * 7", "post r3 * 5",
			},
			want:       map[string]string{"r1": "b", "r2": "c", "r3": "a"},
			unexpected: 1,
		},
		{
			name: "posted receive skips other sources",
			script: []string{
				"send 1 0 a", "send 2 0 b", "send 1 0 c", "send 3 0 d", "poll",
				"post r1 3 0", "post r2 2 *", "post r3 1 0", "post r4 1 *", "post r5 2 0",
			},
			want:       map[string]string{"r1": "d", "r2": "b", "r3": "a", "r4": "c", "r5": ""},
			unexpected: 0,
		},
		{
			name: "arrival completes earliest-posted matching receive",
			script: []string{
				"post r1 * 9", "post r2 1 3", "post r3 * 3", "post r4 1 3",
				"send 1 3 x", "poll", "send 2 3 y", "poll", "send 1 3 z", "poll",
			},
			want: map[string]string{"r1": "", "r2": "x", "r3": "y", "r4": "z"},
		},
		{
			name: "arrivals in one poll bind to posted receives in arrival order",
			script: []string{
				"post r1 * *", "post r2 2 *", "post r3 * *",
				"send 1 0 a", "send 2 0 b", "send 2 0 c", "poll",
			},
			want: map[string]string{"r1": "a", "r2": "b", "r3": "c"},
		},
		{
			name: "specific-source receive behind an unexpected wildcard backlog",
			script: []string{
				"send 1 0 a1", "send 1 0 a2", "send 1 0 a3", "send 2 0 b1",
				"send 1 0 a4", "send 2 0 b2", "poll",
				"post s1 2 *", "post w1 * *", "post s2 2 0", "post w2 * *",
				"post w3 * *", "post w4 * *", "post w5 * *",
			},
			want: map[string]string{
				"s1": "b1", "w1": "a1", "s2": "b2", "w2": "a2", "w3": "a3", "w4": "a4", "w5": "",
			},
		},
		{
			name: "specific-source receive behind a posted wildcard backlog",
			script: []string{
				"post w1 * 4", "post w2 * 4", "post w3 * 4", "post s1 2 8", "post w4 * 8",
				"send 2 8 x", "send 1 8 y", "send 1 4 z", "poll",
			},
			want: map[string]string{"w1": "z", "w2": "", "w3": "", "s1": "x", "w4": "y"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(4, zeroDelay)
			c := w.Comm(0)
			reqs := map[string]*Request{}
			for _, step := range tc.script {
				f := strings.Fields(step)
				var err error
				switch f[0] {
				case "send":
					err = w.Comm(scriptRank(t, f[1])).Send(0, scriptRank(t, f[2]), []byte(f[3]))
				case "poll":
					c.poll()
				case "post":
					reqs[f[1]], err = c.Irecv(scriptRank(t, f[2]), scriptRank(t, f[3]))
				default:
					t.Fatalf("bad step %q", step)
				}
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}
			for name, want := range tc.want {
				req := reqs[name]
				got := ""
				if req.Matched() {
					got = string(req.env.data)
				}
				if got != want {
					t.Errorf("%s matched %q, want %q", name, got, want)
				}
			}
			if n := c.unexpected.len(); n != tc.unexpected {
				t.Errorf("%d envelopes left unexpected, want %d", n, tc.unexpected)
			}
		})
	}
}

// scriptRank parses a rank or tag in a matching script; * is the wildcard.
func scriptRank(t *testing.T, s string) int {
	if s == "*" {
		return AnySource // == AnyTag
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("bad number %q", s)
	}
	return v
}

// BenchmarkIrecvDeepUnexpected queues 2,048 envelopes on rank 0, then posts
// 2,048 AnySource receives; each one matches the head of the unexpected
// queue. Only the receives are timed.
func BenchmarkIrecvDeepUnexpected(b *testing.B) {
	const depth = 2048
	w := NewWorld(2, zeroDelay)
	rx, tx := w.Comm(0), w.Comm(1)
	payload := []byte{1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < depth; j++ {
			if err := tx.Send(0, 0, payload); err != nil {
				b.Fatal(err)
			}
		}
		rx.poll()
		b.StartTimer()
		for j := 0; j < depth; j++ {
			req, err := rx.Irecv(AnySource, AnyTag)
			if err != nil || !req.Matched() {
				b.Fatalf("receive %d: matched=%v err=%v", j, req != nil && req.Matched(), err)
			}
		}
	}
}
