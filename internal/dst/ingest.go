package dst

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"cdcreplay/internal/ingestclient"
	"cdcreplay/internal/ingestd"
	"cdcreplay/internal/ingestwire"
	"cdcreplay/internal/netfault"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/tables"
	"cdcreplay/internal/workload"
)

// P5 ingest — the daemon's exactly-once ack contract holds under an
// adversarial network: a seeded fault plan tears connections mid-frame and
// refuses dials, the workload's bounded-reorder adversary scrambles event
// arrival within a window, and after the client's resume protocol runs its
// course the record must hold every observed event exactly once, in order.
//
// One more schedule reaches the cross-rank ack barrier: three ranks stream
// a seeded message exchange whose rows reference each other's clocks, the
// daemon is hard-killed mid-stream and restarted over the same root, and
// every offset acked before the kill must survive the restart's salvage
// before the clients resume and finish.
//
// Unlike P1–P4, the schedule here is not fully captured by the decision
// sequence — TCP interleaving stays real — but every injected fault is a
// pure function of (seed, dial attempt), so a failing seed replays the
// same fault plan against the same event stream.

// IngestConfig parameterizes the P5 exploration.
type IngestConfig struct {
	// Seeds is how many fault schedules to run. Default 6 (3 in Short).
	Seeds int
	// Seed is the base schedule seed; schedule i uses Seed+i.
	Seed int64
	// Events is the stream length per schedule. Default 1500 (500 short).
	Events int
	// Faults is how many leading dial attempts the plan corrupts per
	// schedule: odd attempts are refused outright, even attempts get a
	// seeded write budget so the connection tears mid-frame. Default 3;
	// negative runs the clean-network control, without the kill schedule.
	Faults int
	// Depth is the bounded-reorder delay bound fed to the workload
	// generator (how far events arrive out of order). Default 4.
	Depth int
	// Short reduces sizes, mirroring go test -short.
	Short bool
}

func (c *IngestConfig) fill() {
	if c.Seeds == 0 {
		c.Seeds = 6
		if c.Short {
			c.Seeds = 3
		}
	}
	if c.Events == 0 {
		c.Events = 1500
		if c.Short {
			c.Events = 500
		}
	}
	if c.Faults == 0 {
		c.Faults = 3
	}
	if c.Depth == 0 {
		c.Depth = 4
	}
}

// IngestReport summarizes a P5 exploration.
type IngestReport struct {
	// Schedules is how many fault schedules ran.
	Schedules int
	// Resumes is the total client reconnect-with-history count; a run
	// with faults injected and zero resumes exercised nothing.
	Resumes uint64
	// Failures holds one line per failed schedule (empty on success).
	Failures []string
}

// ingestStream builds the schedule's wire rows: a bounded-reorder stream
// over two callsites, switching at MF-group boundaries (a WithNext group
// must stay within one callsite's stream).
func ingestStream(events, depth int, seed int64) []ingestwire.Row {
	evs := workload.Stream(workload.StreamParams{
		Events:        events,
		Senders:       1,
		Disorder:      depth,
		UnmatchedProb: 0.3,
		GroupProb:     0.15,
		Seed:          seed,
	})
	rows := make([]ingestwire.Row, 0, len(evs))
	cs := uint64(1)
	named := map[uint64]bool{}
	for _, ev := range evs {
		row := ingestwire.Row{Callsite: cs, Ev: ev}
		if !named[cs] {
			row.Name = fmt.Sprintf("site%d@dst.c:%d", cs, cs)
			named[cs] = true
		}
		rows = append(rows, row)
		if !ev.Flag || !ev.WithNext {
			cs = 3 - cs
		}
	}
	return rows
}

// CheckIngest runs the P5 exactly-once property across seeded fault
// schedules and reports every violation.
func CheckIngest(cfg IngestConfig) (*IngestReport, error) {
	cfg.fill()
	rep := &IngestReport{}
	// The kill schedule, mostly waiting on seals and the restart's
	// salvage, runs beside the one-rank schedules on its own daemon, root
	// and address.
	var kill chan error
	var killResumes uint64
	if cfg.Faults > 0 {
		kill = make(chan error, 1)
		go func() {
			var err error
			killResumes, err = checkIngestKill(cfg, cfg.Seed)
			kill <- err
		}()
	}
	for i := 0; i < cfg.Seeds; i++ {
		seed := cfg.Seed + int64(i)
		resumes, err := checkIngestOnce(cfg, seed)
		rep.Schedules++
		rep.Resumes += resumes
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("seed %d: %v", seed, err))
		}
	}
	if kill != nil {
		err := <-kill
		rep.Schedules++
		rep.Resumes += killResumes
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("kill seed %d: %v", cfg.Seed, err))
		}
	}
	return rep, nil
}

// killRanks is the kill schedule's world size.
const killRanks = 3

// ingestExchange builds the kill schedule's per-rank wire rows from a
// seeded message exchange under Lamport clocks: each step one rank sends
// to another, the receiver logs the match (sometimes after failed tests),
// and both clocks tick, so every rank's rows reference the others'
// clocks. Senders are drawn per phase of 64 steps from a seeded subset of
// the ranks, so sealed segments often reference only some senders, and a
// rank that only sends in a phase holds its receivers' acks until it
// next receives.
//
// pauses[rank] holds the rank's row counts at three points of the
// exchange. The first, halfway, follows a ring round (every rank sends,
// then every rank receives), so the rows before it form a consistent cut
// on every rank. The other two bracket a trap three quarters through:
// rank 1 sends to rank 0 and logs nothing that covers those sends (the
// second pause), then rank 2 sends to rank 0, logging a failed test after
// each send (the third pause). Rank 0's last rows then reference only
// covered clocks while its earlier ones reference rank 1's uncovered
// sends: salvage trims rank 0 from the earlier rows on, so the barrier
// must ack none of them, whatever the later rows reference.
func ingestExchange(steps int, seed int64) (rows [][]ingestwire.Row, pauses [][3]int) {
	rng := rand.New(rand.NewSource(seed))
	clock := make([]uint64, killRanks)
	rows = make([][]ingestwire.Row, killRanks)
	pauses = make([][3]int, killRanks)
	mark := func(k int) {
		for to := range pauses {
			pauses[to][k] = len(rows[to])
		}
	}
	recv := func(from, to int, sent uint64) {
		cs := uint64(1 + len(rows[to])%2)
		if rng.Intn(10) < 3 {
			rows[to] = append(rows[to], ingestwire.Row{Callsite: cs, Clock: clock[to], Ev: tables.Unmatched(uint64(1 + rng.Intn(3)))})
		}
		clock[to] = max(clock[to], sent) + 1
		rows[to] = append(rows[to], ingestwire.Row{Callsite: cs, Clock: clock[to], Ev: tables.Matched(int32(from), sent, false)})
	}
	var senders []int
	for i := 0; i < steps; i++ {
		switch i {
		case steps / 2:
			sent := make([]uint64, killRanks)
			for to := range sent {
				from := (to + 1) % killRanks
				clock[from]++
				sent[to] = clock[from]
			}
			for to, c := range sent {
				recv((to+1)%killRanks, to, c)
			}
			mark(0)
		case 3 * steps / 4:
			for j := 0; j < 8; j++ {
				clock[1]++
				recv(1, 0, clock[1])
			}
			mark(1)
			for j := 0; j < 8; j++ {
				clock[2]++
				sent := clock[2]
				rows[2] = append(rows[2], ingestwire.Row{Callsite: 1, Clock: clock[2], Ev: tables.Unmatched(1)})
				recv(2, 0, sent)
			}
			mark(2)
		}
		if i%64 == 0 {
			senders = rng.Perm(killRanks)[:1+rng.Intn(killRanks-1)]
		}
		from := senders[rng.Intn(len(senders))]
		to := rng.Intn(killRanks - 1)
		if to >= from {
			to++
		}
		clock[from]++
		recv(from, to, clock[from])
	}
	for _, rr := range rows {
		named := map[uint64]bool{}
		for i := range rr {
			if cs := rr[i].Callsite; !named[cs] {
				rr[i].Name = fmt.Sprintf("site%d@dst.c:%d", cs, cs)
				named[cs] = true
			}
		}
	}
	return rows, pauses
}

// checkIngestKill runs the multi-rank kill schedule. The clients stream
// their rows in four parts, each rank from its own goroutine:
//
//  1. up to the halfway pause; the schedule waits until a quarter of the
//     offered events are acked, so the barrier is known to make progress;
//  2. and 3. up to each side of the trap (see ingestExchange); after each
//     part the schedule lets the daemon seal it, so the trap's two halves
//     land in separate segments, and after the third it kills the daemon
//     as the clients start the last part;
//  4. the rest, resumed against a new daemon over the same root and
//     address, which salvaged the root in New before serving anyone.
//
// Each rank's pre-kill ack must be within its salvaged frontier. The
// clients finish only after the restart (a rank that finished against the
// killed daemon would never reattach to the new one), and every rank's
// record must then hold its rows exactly once.
func checkIngestKill(cfg IngestConfig, seed int64) (uint64, error) {
	root, err := os.MkdirTemp("", "dst-ingest-kill-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(root) //cdc:allow(errsink) best-effort temp cleanup

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	addr := l.Addr().String()
	l.Close() //cdc:allow(errsink) probe listener; the daemon binds the address
	const flushEvery = time.Millisecond
	scfg := ingestd.Config{Addr: addr, Root: root, FlushInterval: flushEvery, Obs: obs.NewRegistry()}
	// start binds the address, which the killed incarnation's listener
	// may take a moment to release.
	start := func(srv *ingestd.Server) error {
		for attempt := 0; ; attempt++ {
			err := srv.Start()
			if err == nil || attempt == 100 {
				return err
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	srv, err := ingestd.New(scfg)
	if err != nil {
		return 0, err
	}
	if err := start(srv); err != nil {
		return 0, err
	}
	defer func() { srv.Kill() }()

	run := fmt.Sprintf("p5-kill-%d", seed)
	rows, pauses := ingestExchange(cfg.Events, seed)
	var offered uint64
	for _, rr := range rows {
		for _, r := range rr {
			offered += r.Weight()
		}
	}
	clients := make([]*ingestclient.Client, killRanks)
	for rank := range clients {
		c, err := ingestclient.Dial(ingestclient.Config{
			Addr: addr, Tenant: "dst", Run: run, Rank: rank, Ranks: killRanks,
			BatchRows: 16,
			Backoff: ingestclient.Backoff{
				Base: time.Millisecond, Cap: 5 * time.Millisecond, MaxAttempts: 1000,
				Rand: rand.New(rand.NewSource(seed + int64(rank))),
			},
		})
		if err != nil {
			return 0, fmt.Errorf("rank %d dial: %w", rank, err)
		}
		clients[rank] = c
	}
	resumes := func() uint64 {
		var n uint64
		for _, c := range clients {
			n += c.Resumes()
		}
		return n
	}
	acked := func() uint64 {
		var n uint64
		for _, c := range clients {
			n += c.Acked()
		}
		return n
	}

	// Part k of every client starts when gate[k] closes; paused[k] counts
	// the clients done with the part before it.
	send := func(c *ingestclient.Client, rows []ingestwire.Row) error {
		for _, r := range rows {
			if err := c.Observe(r.Callsite, r.Name, r.Ev, r.Clock); err != nil {
				return err
			}
		}
		return c.Flush()
	}
	var gate [5]chan struct{}
	var paused [4]sync.WaitGroup
	for k := range gate {
		gate[k] = make(chan struct{})
	}
	for k := range paused {
		paused[k].Add(killRanks)
	}
	close(gate[0])
	errs := make(chan error, killRanks)
	var wg sync.WaitGroup
	wg.Add(killRanks)
	for rank, c := range clients {
		go func(rank int, c *ingestclient.Client, rows []ingestwire.Row) {
			defer wg.Done()
			cuts := []int{0, pauses[rank][0], pauses[rank][1], pauses[rank][2], len(rows)}
			var err error
			for k := range paused {
				<-gate[k]
				if err == nil {
					err = send(c, rows[cuts[k]:cuts[k+1]])
				}
				paused[k].Done()
			}
			<-gate[len(paused)]
			if err == nil {
				err = c.Close()
			}
			if err != nil {
				errs <- fmt.Errorf("rank %d: %w", rank, err)
			}
		}(rank, c, rows[rank])
	}
	// Every exit past this point releases the clients.
	open := 1
	defer func() {
		for ; open < len(gate); open++ {
			close(gate[open])
		}
	}()

	paused[0].Wait()
	for deadline := time.Now().Add(10 * time.Second); acked() < offered/4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return resumes(), fmt.Errorf("acked %d of %d offered events at the halfway cut; want a quarter", acked(), offered)
		}
	}
	// Housekeeping seals each trap half and runs the barrier.
	for k := 1; k <= 2; k++ {
		close(gate[k])
		open++
		paused[k].Wait()
		time.Sleep(3 * flushEvery)
	}
	close(gate[3])
	open++
	srv.Kill()
	ackedBefore := make([]uint64, killRanks)
	for rank, c := range clients {
		ackedBefore[rank] = c.Acked()
	}

	if srv, err = ingestd.New(scfg); err != nil {
		return resumes(), err
	}
	st, err := dirstore.OpenRoot(root).Open("dst/" + run)
	if err != nil {
		return resumes(), err
	}
	for rank, a := range ackedBefore {
		kept, _, err := store.RankFrontier(st, rank)
		if err != nil {
			return resumes(), err
		}
		if a > kept {
			return resumes(), fmt.Errorf("rank %d: acked %d events before the kill, salvage kept %d", rank, a, kept)
		}
	}
	if err := start(srv); err != nil {
		return resumes(), err
	}
	paused[3].Wait()
	close(gate[4])
	open++
	wg.Wait()
	close(errs)
	for err := range errs {
		return resumes(), err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return resumes(), fmt.Errorf("drain: %w", err)
	}
	if _, err := store.Open(st, "ingest", killRanks); err != nil {
		return resumes(), fmt.Errorf("finalized run: %w", err)
	}
	for rank, rr := range rows {
		if err := ingestd.VerifyRank(st, rank, rr); err != nil {
			return resumes(), fmt.Errorf("rank %d: exactly-once violated after resume: %w", rank, err)
		}
	}
	if resumes() == 0 {
		return 0, fmt.Errorf("the kill produced no client resume")
	}
	return resumes(), nil
}

func checkIngestOnce(cfg IngestConfig, seed int64) (uint64, error) {
	root, err := os.MkdirTemp("", "dst-ingest-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(root) //cdc:allow(errsink) best-effort temp cleanup

	srv, err := ingestd.New(ingestd.Config{
		Addr:          "127.0.0.1:0",
		Root:          root,
		FlushInterval: 2 * time.Millisecond,
		Obs:           obs.NewRegistry(),
	})
	if err != nil {
		return 0, err
	}
	if err := srv.Start(); err != nil {
		return 0, err
	}
	defer srv.Kill()

	// The fault plan is a pure function of (seed, dial attempt): the first
	// cfg.Faults attempts alternate torn writes (seeded byte budget, so the
	// connection dies mid-frame) and refused dials; everything after is
	// clean. Budgets start past the handshake size so sessions establish
	// and then tear during event streaming.
	rng := rand.New(rand.NewSource(seed))
	var budgets []int
	for j := 0; j < cfg.Faults; j++ {
		budgets = append(budgets, 256+rng.Intn(4096))
	}
	dialer := netfault.NewDialer(nil, func(attempt int) netfault.Plan {
		if attempt >= cfg.Faults {
			return netfault.Plan{}
		}
		if attempt%2 == 1 {
			return netfault.Plan{RefuseDial: true}
		}
		return netfault.Plan{WriteBudget: budgets[attempt]}
	})

	rows := ingestStream(cfg.Events, cfg.Depth, seed)
	c, err := ingestclient.Dial(ingestclient.Config{
		Addr: srv.Addr(), Tenant: "dst", Run: fmt.Sprintf("p5-%d", seed), Rank: 0, Ranks: 1,
		BatchRows: 16, // small frames so torn writes land mid-stream, not mid-first-flush
		Backoff: ingestclient.Backoff{
			Base: 2 * time.Millisecond, Cap: 50 * time.Millisecond, MaxAttempts: 50,
			Rand: rand.New(rand.NewSource(seed)),
		},
		Dialer: func(addr string) (net.Conn, error) { return dialer.Dial(addr) },
	})
	if err != nil {
		return 0, fmt.Errorf("dial through fault plan: %w", err)
	}
	for _, r := range rows {
		if err := c.Observe(r.Callsite, r.Name, r.Ev, 0); err != nil {
			return c.Resumes(), fmt.Errorf("observe: %w", err)
		}
	}
	if err := c.Close(); err != nil {
		return c.Resumes(), fmt.Errorf("close: %w", err)
	}

	st, err := dirstore.OpenRoot(root).Open("dst/" + fmt.Sprintf("p5-%d", seed))
	if err != nil {
		return c.Resumes(), fmt.Errorf("finalized run: %w", err)
	}
	if _, err := store.Open(st, "ingest", 1); err != nil {
		return c.Resumes(), fmt.Errorf("finalized run: %w", err)
	}
	if err := ingestd.VerifyRank(st, 0, rows); err != nil {
		return c.Resumes(), fmt.Errorf("exactly-once violated: %w", err)
	}
	if cfg.Faults > 0 && c.Resumes() == 0 {
		return c.Resumes(), fmt.Errorf("fault plan injected %d faults but the client never resumed", cfg.Faults)
	}
	return c.Resumes(), nil
}
