package record

import (
	"errors"
	"testing"
	"time"

	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/tables"
)

// failingBackend errors on the Nth Observe call, standing in for a dying
// disk under the encoder.
type failingBackend struct {
	failAt int
	seen   int
	err    error
}

func (b *failingBackend) Observe(cs uint64, ev tables.Event) error {
	b.seen++
	if b.seen >= b.failAt {
		return b.err
	}
	return nil
}
func (b *failingBackend) RegisterCallsite(uint64, string) error { return nil }
func (b *failingBackend) FlushAll(uint64) error                 { return nil }
func (b *failingBackend) NoteCollective(uint64)                 {}
func (b *failingBackend) Close() error                          { return nil }

// TestBackendErrorSurfacesWithinOneMFCall drives a recorder whose backend
// fails on the first row and asserts the application thread sees the error
// from its next MF call — not only at Close.
func TestBackendErrorSurfacesWithinOneMFCall(t *testing.T) {
	boom := errors.New("disk on fire")
	w := simmpi.NewWorld(2, simmpi.Options{})
	c0, c1 := w.Comm(0), w.Comm(1)
	rec := New(c1, &failingBackend{failAt: 1, err: boom}, Options{})

	if err := c0.Send(1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	req, err := rec.Irecv(simmpi.AnySource, simmpi.AnyTag)
	if err != nil {
		t.Fatal(err)
	}
	// This Wait records the row whose encoding fails on the CDC goroutine.
	if _, err := rec.Wait(req); err != nil {
		t.Fatalf("the recording MF call itself should not fail: %v", err)
	}
	// The very next MF call must observe the latched error. The CDC
	// goroutine is asynchronous, so allow it a bounded drain window —
	// but each poll is one MF call on an already-drained queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, err := rec.Testsome(nil)
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("MF call returned %v, want the backend error", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backend error never surfaced from MF calls")
		}
	}
	if err := rec.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want the backend error", err)
	}
	// Close still reports the same first error.
	if err := rec.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close() = %v, want the backend error", err)
	}
}

// TestErrNilOnHealthyBackend pins down that Err stays nil through a clean
// record-and-close cycle.
func TestErrNilOnHealthyBackend(t *testing.T) {
	w := simmpi.NewWorld(2, simmpi.Options{})
	c0, c1 := w.Comm(0), w.Comm(1)
	rec := New(c1, &failingBackend{failAt: 1 << 30}, Options{})
	if err := c0.Send(1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	req, _ := rec.Irecv(simmpi.AnySource, simmpi.AnyTag)
	if _, err := rec.Wait(req); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("Err() = %v on healthy backend", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close() = %v", err)
	}
}
