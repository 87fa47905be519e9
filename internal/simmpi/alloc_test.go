package simmpi

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// TestSendAllocatesOnlyPayloadCopy: a buffered-eager Send allocates the
// payload copy and nothing else — the envelope is stored by value.
func TestSendAllocatesOnlyPayloadCopy(t *testing.T) {
	w := NewWorld(2, zeroDelay)
	c := w.Comm(0)
	payload := make([]byte, 64)
	var sendErr error
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Send(1, 3, payload); err != nil {
			sendErr = err
		}
		w.boxes[1].drain()
	})
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if allocs != 1 {
		t.Fatalf("Send allocates %.1f times, want 1 (the payload copy)", allocs)
	}
}

// TestCompletionsAllocateNothing: once warm, each Test/Wait-family call that
// completes k matched requests reuses the endpoint's result slices (the
// lifetime rule on MPI) and allocates nothing.
func TestCompletionsAllocateNothing(t *testing.T) {
	const k, runs = 4, 50
	calls := map[string]func(c *Comm, reqs []*Request) (int, error){
		"Testsome": func(c *Comm, reqs []*Request) (int, error) {
			idxs, _, err := c.Testsome(reqs)
			return len(idxs), err
		},
		"Waitsome": func(c *Comm, reqs []*Request) (int, error) {
			idxs, _, err := c.Waitsome(reqs)
			return len(idxs), err
		},
		"Testall": func(c *Comm, reqs []*Request) (int, error) {
			_, sts, err := c.Testall(reqs)
			return len(sts), err
		},
		"Waitall": func(c *Comm, reqs []*Request) (int, error) {
			sts, err := c.Waitall(reqs)
			return len(sts), err
		},
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			w := NewWorld(2, zeroDelay)
			recv, send := w.Comm(0), w.Comm(1)
			// AllocsPerRun makes one warm-up call before its runs; each
			// call completes its own window of k requests.
			reqs := make([]*Request, k*(runs+1))
			for i := range reqs {
				req, err := recv.Irecv(AnySource, 2)
				if err != nil {
					t.Fatal(err)
				}
				reqs[i] = req
				if err := send.Send(0, 2, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			recv.poll() // match every request before measuring
			next, bad := 0, 0
			allocs := testing.AllocsPerRun(runs, func() {
				n, err := call(recv, reqs[next:next+k])
				if err != nil || n != k {
					bad++
				}
				next += k
			})
			if bad > 0 {
				t.Fatalf("%d of %d calls did not complete all %d requests", bad, runs+1, k)
			}
			if allocs != 0 {
				t.Fatalf("%s over %d matched requests allocates %.1f times, want 0", name, k, allocs)
			}
		})
	}
}

// TestDeliveryTracePinned pins the jitter model end to end: a scripted,
// single-goroutine exchange on a seeded world (three senders, jitter up to
// 8 ticks, bursts that exercise the per-sender FIFO clamp) must deliver
// every message at the same tick, with the same arrival time and deposit
// sequence, in the same completion order. The digest changes if the jitter
// draw sequence, the per-sender arrival frontier or the (arriveAt,
// depositSeq) order does.
func TestDeliveryTracePinned(t *testing.T) {
	w := NewWorld(4, Options{Seed: 42})
	recv := w.Comm(0)
	senders := []*Comm{w.Comm(1), w.Comm(2), w.Comm(3)}
	reqs := make([]*Request, 4)
	for i := range reqs {
		req, err := recv.Irecv(AnySource, AnyTag)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = req
	}
	script := rand.New(rand.NewSource(9))
	h := sha256.New()
	var rec [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(rec[:], v)
		h.Write(rec[:])
	}
	sent, got := 0, 0
	for step := 0; got < 300; step++ {
		if sent < 300 && script.Intn(3) > 0 {
			for burst := 1 + script.Intn(3); burst > 0 && sent < 300; burst-- {
				s := script.Intn(len(senders))
				if err := senders[s].Send(0, sent%3, []byte{byte(sent), byte(sent >> 8)}); err != nil {
					t.Fatal(err)
				}
				sent++
			}
			continue
		}
		idxs, sts, err := recv.Testsome(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for k, i := range idxs {
			env := reqs[i].env
			put(uint64(step))
			put(uint64(sts[k].Source))
			put(uint64(sts[k].Tag))
			put(uint64(sts[k].Data[0]) | uint64(sts[k].Data[1])<<8)
			put(env.arriveAt)
			put(env.depositSeq)
			got++
			if reqs[i], err = recv.Irecv(AnySource, AnyTag); err != nil {
				t.Fatal(err)
			}
		}
	}
	const want = "5d80b9e1314045b89a6224e82a33ca4bc662845f132b4008d4256b47e56bccc7"
	if sum := hex.EncodeToString(h.Sum(nil)); sum != want {
		t.Fatalf("delivery trace digest %s, want %s", sum, want)
	}
}

// TestCollectivesAllocateNothing: once warm, Barrier and Allreduce
// allocate nothing on either side of the rendezvous. The last arriver never
// waits, so it arms no liveness timer; a rank that blocks reuses its
// endpoint's one timer. The two-rank case counts both ranks' allocations,
// since AllocsPerRun reads process-wide counters.
func TestCollectivesAllocateNothing(t *testing.T) {
	const runs = 50
	calls := map[string]func(c *Comm) error{
		"Barrier": func(c *Comm) error { return c.Barrier() },
		"Allreduce": func(c *Comm) error {
			_, err := c.Allreduce(float64(c.Rank()), OpSum)
			return err
		},
	}
	for name, call := range calls {
		for _, n := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/ranks=%d", name, n), func(t *testing.T) {
				w := NewWorld(n, zeroDelay)
				peerErr := make(chan error, 1)
				if n == 2 {
					peer := w.Comm(1)
					go func() {
						// AllocsPerRun makes one warm-up call before its runs.
						for i := 0; i < runs+1; i++ {
							if err := call(peer); err != nil {
								peerErr <- err
								return
							}
						}
						peerErr <- nil
					}()
				}
				c := w.Comm(0)
				var callErr error
				allocs := testing.AllocsPerRun(runs, func() {
					if err := call(c); err != nil {
						callErr = err
					}
				})
				if n == 2 {
					if err := <-peerErr; err != nil {
						t.Fatal(err)
					}
				}
				if callErr != nil {
					t.Fatal(callErr)
				}
				if allocs != 0 {
					t.Fatalf("%s on %d ranks allocates %.1f times per call, want 0", name, n, allocs)
				}
			})
		}
	}
}
