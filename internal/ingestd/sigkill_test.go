package ingestd

import (
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"cdcreplay/internal/ingestclient"
)

// TestHelperDaemon is not a test: when CDCD_HELPER_ROOT is set it becomes
// the child process of TestSIGKILLResume — a real cdcd daemon in its own
// process, so the parent can SIGKILL it mid-ingest and nothing buffered in
// user space survives.
func TestHelperDaemon(t *testing.T) {
	root := os.Getenv("CDCD_HELPER_ROOT")
	if root == "" {
		t.Skip("helper process only")
	}
	srv, err := New(Config{
		Addr:          "127.0.0.1:0",
		Root:          root,
		FlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("helper: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("helper: %v", err)
	}
	// Publish the bound address atomically so the parent never reads a
	// half-written file.
	tmp := filepath.Join(root, "addr.tmp")
	if err := os.WriteFile(tmp, []byte(srv.Addr()), 0o644); err != nil {
		t.Fatalf("helper: %v", err)
	}
	if err := os.Rename(tmp, filepath.Join(root, "addr")); err != nil {
		t.Fatalf("helper: %v", err)
	}
	select {} // run until the parent kills us
}

func spawnDaemon(t *testing.T, root string) (*exec.Cmd, string) {
	t.Helper()
	os.Remove(filepath.Join(root, "addr")) //cdc:allow(errsink) stale addr from a prior child may not exist
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperDaemon$", "-test.v")
	cmd.Env = append(os.Environ(), "CDCD_HELPER_ROOT="+root)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill() //cdc:allow(errsink) test teardown; child may already be dead
			cmd.Wait()         //cdc:allow(errsink) reap; exit status is expected to be a kill
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(filepath.Join(root, "addr")); err == nil && len(b) > 0 {
			return cmd, string(b)
		}
		if time.Now().After(deadline) {
			t.Fatal("helper daemon never published its address")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSIGKILLResume is the end-to-end crash-safety contract: a daemon
// PROCESS is killed with SIGKILL mid-ingest (no drain, no deferred
// cleanup, gzip state dies in its buffers), a fresh process salvages the
// same record root, and a resuming client replays from the salvaged
// frontier — the final record holds every event exactly once.
func TestSIGKILLResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec test")
	}
	root := t.TempDir()
	cmd, addr := spawnDaemon(t, root)

	rows := expectedRows(singleRankStream(4000, 11))
	cfg := clientConfig(addr, "acme", "sk", 0, 1)
	c, err := ingestclient.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	half := groupEnd(rows, len(rows)/2)
	streamRows(t, c, rows[:half])
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait for at least one durable ack so the kill provably destroys
	// in-flight state without voiding the whole test. The deadline is
	// generous: the child process competes with the rest of the suite for
	// CPU, and it only bounds the failure case.
	ackDeadline := time.Now().Add(30 * time.Second)
	for c.Acked() == 0 {
		if time.Now().After(ackDeadline) {
			t.Fatal("no ack before kill")
		}
		time.Sleep(time.Millisecond)
	}
	ackedBefore := c.Acked()

	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //cdc:allow(errsink) exit status of a SIGKILLed child is the expected failure

	_, addr2 := spawnDaemon(t, root)
	cfg2 := cfg
	cfg2.Addr = addr2
	c2, err := ingestclient.Dial(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	resumeAt := c2.Acked() // fresh client adopts the salvaged frontier
	if resumeAt < ackedBefore {
		t.Fatalf("salvaged frontier %d lost acked events (acked %d before SIGKILL)", resumeAt, ackedBefore)
	}
	var cum uint64
	idx := 0
	for idx < len(rows) && cum < resumeAt {
		cum += rows[idx].Weight()
		idx++
	}
	if cum != resumeAt {
		t.Fatalf("salvaged frontier %d does not fall on a row boundary (cum %d)", resumeAt, cum)
	}
	streamRows(t, c2, rows[idx:])
	if err := c2.Close(); err != nil {
		t.Fatalf("Close after SIGKILL resume: %v", err)
	}

	st := openRun(t, root, "acme", "sk", 1)
	if err := VerifyRank(st, 0, rows); err != nil {
		t.Fatalf("SIGKILL+salvage+resume lost or duplicated events: %v", err)
	}
}
