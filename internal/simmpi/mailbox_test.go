package simmpi

import "testing"

func TestMailboxDrainOrdersByArrival(t *testing.T) {
	m := newMailbox(1, 0, 2) // jitter 0: everything arrives next tick
	m.deposit(0, 0, []byte{1})
	m.deposit(1, 0, []byte{2})
	m.deposit(0, 0, []byte{3})
	got := m.drain()
	if len(got) != 3 {
		t.Fatalf("drained %d envelopes", len(got))
	}
	// Same arrival tick: deposit sequence breaks ties.
	for i, want := range []byte{1, 2, 3} {
		if got[i].data[0] != want {
			t.Fatalf("drain order = %v %v %v", got[0].data, got[1].data, got[2].data)
		}
	}
	if m.pending() != 0 {
		t.Fatalf("pending = %d", m.pending())
	}
}

func TestMailboxPerSenderArrivalNeverReorders(t *testing.T) {
	m := newMailbox(7, 32, 4) // large jitter
	const n = 200
	for i := 0; i < n; i++ {
		m.deposit(3, 0, []byte{byte(i)})
	}
	var seen []byte
	for len(seen) < n {
		for _, e := range m.drain() {
			seen = append(seen, e.data[0])
		}
	}
	for i := range seen {
		if seen[i] != byte(i) {
			t.Fatalf("per-sender order violated at %d: %d", i, seen[i])
		}
	}
}

func TestMailboxJitterDelaysDelivery(t *testing.T) {
	m := newMailbox(11, 1000, 1)
	m.deposit(0, 0, nil)
	// With a huge jitter window the message usually needs many ticks.
	immediate := len(m.drain())
	ticks := 1
	for m.pending() > 0 {
		m.drain()
		ticks++
		if ticks > 1_000_000 {
			t.Fatal("message never delivered")
		}
	}
	if immediate == 1 && ticks == 1 {
		t.Log("message arrived on first tick (possible but unlikely)")
	}
}
