package cdc

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// expectOptionError applies opts under mode and asserts the rejection came
// from the named option with both error idioms (Is on the sentinel, As on
// the typed error) working.
func expectOptionError(t *testing.T, mode sessionMode, wantOption string, opts ...Option) {
	t.Helper()
	_, err := newConfig(mode, opts)
	if err == nil {
		t.Fatalf("%s: options accepted, want rejection", wantOption)
	}
	if !errors.Is(err, ErrInvalidOption) {
		t.Errorf("%s: errors.Is(err, ErrInvalidOption) = false for %v", wantOption, err)
	}
	var oe *OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("%s: error %v is not an *OptionError", wantOption, err)
	}
	if oe.Option != wantOption {
		t.Errorf("rejected option = %s, want %s (reason: %s)", oe.Option, wantOption, oe.Reason)
	}
	if oe.Reason == "" {
		t.Errorf("%s: empty reason", wantOption)
	}
}

func TestOptionValueValidation(t *testing.T) {
	expectOptionError(t, modeRecord, "WithFlushInterval", WithFlushInterval(-time.Second))
	expectOptionError(t, modeRecord, "WithFlushEveryRows", WithFlushEveryRows(0))
	expectOptionError(t, modeRecord, "WithChunkEvents", WithChunkEvents(-1))
	expectOptionError(t, modeRecord, "WithEncodeWorkers", WithEncodeWorkers(0))
	expectOptionError(t, modeRecord, "WithEncodeWorkers", WithEncodeWorkers(-2))
	expectOptionError(t, modeRecord, "WithEncodeWorkers", WithEncodeWorkers(1000))
	expectOptionError(t, modeReplay, "WithTimeout", WithTimeout(0))
}

func TestOptionModeScoping(t *testing.T) {
	// Record-only options rejected in Replay mode and vice versa, with the
	// mode named in the reason.
	expectOptionError(t, modeReplay, "WithDurable", WithDurable())
	expectOptionError(t, modeReplay, "WithParams", WithParams(nil))
	expectOptionError(t, modeReplay, "WithEncodeWorkers", WithEncodeWorkers(4))
	expectOptionError(t, modeRecord, "WithOnRelease", WithOnRelease(nil))
	_, err := newConfig(modeRecord, []Option{WithTimeout(time.Second)})
	var oe *OptionError
	if !errors.As(err, &oe) || !strings.Contains(oe.Reason, "Record") {
		t.Errorf("mode-mismatch reason should name the offending mode: %v", err)
	}
}

func TestDurableRequiresFlushCadence(t *testing.T) {
	expectOptionError(t, modeRecord, "WithDurable", WithDurable())
	// Either cadence satisfies the cross-option rule, regardless of order.
	for _, opts := range [][]Option{
		{WithDir("rec"), WithDurable(), WithFlushEveryRows(32)},
		{WithDir("rec"), WithFlushInterval(time.Millisecond), WithDurable()},
	} {
		if _, err := newConfig(modeRecord, opts); err != nil {
			t.Errorf("durable with cadence rejected: %v", err)
		}
	}
}

func TestValidOptionsAccumulate(t *testing.T) {
	cfg, err := newConfig(modeRecord, []Option{
		WithDir("rec"),
		WithStoreLayout(LayoutSharded),
		WithApp("mcb"),
		WithParams(map[string]string{"particles": "200"}),
		WithParams(map[string]string{"steps": "2"}),
		WithObs(nil), // explicitly disabled observability is valid
		WithEncodeWorkers(4),
		nil, // nil options are skipped, not a panic
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.app != "mcb" {
		t.Errorf("config = %+v", cfg)
	}
	if cfg.dir != "rec" || cfg.layout != LayoutSharded {
		t.Errorf("storage destination = dir %q layout %q", cfg.dir, cfg.layout)
	}
	if cfg.encodeWorkers != 4 {
		t.Errorf("encodeWorkers = %d, want 4", cfg.encodeWorkers)
	}
	if cfg.params["particles"] != "200" || cfg.params["steps"] != "2" {
		t.Errorf("params did not merge: %v", cfg.params)
	}
}
