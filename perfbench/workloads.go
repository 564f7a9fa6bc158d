package main

import (
	"fmt"
	"strings"
	"sync"
	"syscall"
	"time"

	"interpose/internal/apps"
	"interpose/internal/kernel"
	"interpose/internal/world"
)

// openRate is the short-sessions open-loop offered load, in sessions
// per second, set once: about a quarter of the closed-loop capacity of
// the 2-vCPU reference host (7-11k sessions/s). At half of it (4000/s)
// the open loop fell behind there in the host's slow phases (generator
// late by 15 ms at p99, latency growing over each stretch), because
// waking idle processors for each arrival costs far more than the
// session itself.
const openRate = 2000

// buildSpec is the agent-build tenant spec: the paper's timex and union
// agents over the make tree and the dissertation, journaled in memory.
var buildSpec = map[string]any{
	"agents":      []string{"timex=3600", "union=/view=/src:/doc"},
	"journal_mem": true,
}

// makePrograms is the paper's make-8-programs workload size.
const makePrograms = 8

// buildFixtures writes the make tree at /src and the dissertation at
// /doc, the two members of the union the builds run in.
func buildFixtures(k *kernel.Kernel) error {
	if err := apps.GenMakeTree(k, "/src", makePrograms); err != nil {
		return err
	}
	_, err := apps.GenDissertation(k, "/doc", 8, 4, 6)
	return err
}

// buildSessions is one build: remove every output (cc deletes its
// intermediates, so the outputs are the programs), make all, run every
// built program. dir is where the tree is seen (/view through the union
// agent, /src without it).
func buildSessions(dir string) []session {
	rm := []string{"rm"}
	var mk, run strings.Builder
	for i := 1; i <= makePrograms; i++ {
		rm = append(rm, fmt.Sprintf("%s/prog%d", dir, i))
		fmt.Fprintf(&mk, "cc -o prog%d prog%d_main.c prog%d_sub.c\n", i, i, i)
		run.WriteString(apps.ExpectedProgOutput(i))
	}
	progs := make([]string, makePrograms)
	for i := range progs {
		progs[i] = fmt.Sprintf("./prog%d", i+1)
	}
	return []session{
		{argv: rm},
		{argv: []string{"sh", "-c", "cd " + dir + "; mk all"}, output: mk.String()},
		{argv: []string{"sh", "-c", "cd " + dir + "; " + strings.Join(progs, "; ")}, output: run.String()},
	}
}

// check compares a session result against its oracle.
func check(s session, res world.ExecResult) error {
	if !res.Exited() || res.Status != s.status {
		return fmt.Errorf("%v: status %d signal %q, want %d", s.argv, res.Status, res.Signal, s.status)
	}
	if res.Output != s.output {
		return fmt.Errorf("%v: output %.80q, want %.80q", s.argv, res.Output, s.output)
	}
	return nil
}

// env is one set-up workload: a daemon and its resident tenants.
type env struct {
	d       *daemon
	tenants []string
	worlds  int // resident worlds the heap figure divides by
	fx      []fixture
	setup   []func(*kernel.Kernel) error // the daemon's Config.Setup
	base    leakBaseline
}

// phase is what one measured stretch of a workload produced.
type phase struct {
	op       []obs         // unit-of-work latencies (closed loop)
	open     []obs         // open-loop session latencies from due time (short-sessions)
	done     []int64       // completion times of closed-loop ops
	dur      time.Duration // length of the stretch
	scrape   samples
	scrapeB  int
	late     samples // open-loop generator lateness (short-sessions)
	sessRTT  samples // per exec: client round trip
	sessSelf samples // per exec: round trip minus server elapsed_ns
	opExec   samples // per op: sum of server elapsed_ns
}

// opsPerSec is the throughput of the closed-loop stretch, the median
// over its windows.
func (p *phase) opsPerSec() float64 { return windowedRate(p.done, p.dur) }

// merge folds another client's samples into p (the caller serializes).
func (p *phase) merge(q *phase) {
	p.op = append(p.op, q.op...)
	p.open = append(p.open, q.open...)
	p.done = append(p.done, q.done...)
	p.scrape = append(p.scrape, q.scrape...)
	p.scrapeB += q.scrapeB
	p.late = append(p.late, q.late...)
	p.sessRTT = append(p.sessRTT, q.sessRTT...)
	p.sessSelf = append(p.sessSelf, q.sessSelf...)
	p.opExec = append(p.opExec, q.opExec...)
}

// client is one benchmark client goroutine's view: its own samples,
// the shared failure tally, and the span recorder (nil when untraced).
type client struct {
	e     *env
	t     *tally
	rec   *recorder
	start time.Time // when the client's stretch began
	p     phase
}

// addOp records one unit of work that took d and completed now.
func (c *client) addOp(d time.Duration) {
	c.p.op = append(c.p.op, obs{at: int64(time.Since(c.start)), d: int64(d)})
}

// execChecked runs one session under parent span and checks it against
// its oracle, returning the server-reported elapsed time.
func (c *client) execChecked(id string, s session, parent int64) (time.Duration, bool) {
	sp := c.rec.begin("client.exec", parent)
	t0 := time.Now()
	res, err := c.e.d.exec(id, s.argv)
	rtt := time.Since(t0)
	end := sp.end()
	if err != nil {
		c.t.fail("exec %v: %v", s.argv, err)
		return 0, false
	}
	c.rec.record("server.exec", sp.id(), end-int64(res.Elapsed), end)
	c.p.sessRTT.add(rtt)
	c.p.sessSelf.add(rtt - res.Elapsed)
	if err := check(s, res); err != nil {
		c.t.fail("%v", err)
		return res.Elapsed, false
	}
	c.t.ok()
	return res.Elapsed, true
}

// scrape times one GET /1.0/metrics.
func (c *client) scrape(parent int64) {
	sp := c.rec.begin("client.scrape", parent)
	t0 := time.Now()
	_, n, err := c.e.d.metrics()
	d := time.Since(t0)
	sp.end()
	if err != nil {
		c.t.fail("scrape: %v", err)
		return
	}
	c.t.ok()
	c.p.scrape.add(d)
	c.p.scrapeB += n
}

// closedLoop runs op on maxConns clients, each sending its next op only
// when the previous one returned, until dur has passed. Only ops whose
// checks passed (op returns true) count towards throughput. Client 0
// also scrapes the metrics every `every` ops.
func closedLoop(e *env, t *tally, rec *recorder, dur time.Duration, every int, op func(c *client, idx, iter int) bool) phase {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		out phase
	)
	start := time.Now()
	for i := 0; i < maxConns; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			c := &client{e: e, t: t, rec: rec, start: start}
			for iter := 0; time.Since(start) < dur; iter++ {
				if op(c, idx, iter) {
					c.p.done = append(c.p.done, int64(time.Since(start)))
				}
				if idx == 0 && every > 0 && iter%every == every-1 {
					c.scrape(0)
				}
			}
			mu.Lock()
			out.merge(&c.p)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	out.dur = dur
	return out
}

// shortChunk is the length of one short-sessions stretch. The run
// alternates open- and closed-loop stretches of this length, so a host
// slowdown lands on both metrics alike and on few of their windows.
const shortChunk = time.Second

// runShort measures short-sessions: open-loop stretches at openRate
// (latency from each request's due time) alternating with closed-loop
// stretches, one client per tenant (latency and throughput).
func runShort(w *workload, e *env, t *tally, rec *recorder, seed int64, dur time.Duration) phase {
	rounds := max(int(dur/(2*shortChunk)), 1)
	sched := poissonSchedule(seed, openRate, time.Duration(rounds)*shortChunk)
	open := newShortMix(seed, maxConns, e.fx)
	var mixes [maxConns]*shortMix
	for i := range mixes {
		mixes[i] = newShortMix(seed, i, e.fx)
	}
	var out phase
	for r := 0; r < rounds; r++ {
		lo, hi := time.Duration(r)*shortChunk, time.Duration(r+1)*shortChunk
		var due []time.Duration
		for len(sched) > 0 && sched[0] < hi {
			due = append(due, sched[0]-lo)
			sched = sched[1:]
		}
		o := openLoop(e, t, rec, due, open, shortChunk)
		c := closedLoop(e, t, rec, shortChunk, w.scrapeEvery, func(c *client, idx, iter int) bool {
			sp := c.rec.begin(w.root, 0)
			t0 := time.Now()
			el, ok := c.execChecked(e.tenants[idx], mixes[idx].next(), sp.id())
			sp.end()
			if ok {
				c.addOp(time.Since(t0))
				c.p.opExec.add(el)
			}
			return ok
		})
		c.open, c.late = o.op, o.late
		c.sessRTT = append(c.sessRTT, o.sessRTT...)
		c.sessSelf = append(c.sessSelf, o.sessSelf...)
		c.opExec = append(c.opExec, o.opExec...)
		out.appendShifted(&c, lo)
	}
	return out
}

// appendShifted appends stretch q, which began off into the run, to p.
func (p *phase) appendShifted(q *phase, off time.Duration) {
	shift := func(ops []obs) []obs {
		out := make([]obs, len(ops))
		for i, o := range ops {
			out[i] = obs{at: o.at + int64(off), d: o.d}
		}
		return out
	}
	p.op = append(p.op, shift(q.op)...)
	p.open = append(p.open, shift(q.open)...)
	for _, at := range q.done {
		p.done = append(p.done, at+int64(off))
	}
	p.dur += q.dur
	q.op, q.open, q.done = nil, nil, nil
	p.merge(q)
}

// openLoop sends the short mix at the given due offsets through
// maxConns workers (one per tenant). The generator releases each request
// at its due time onto a queue sized to the whole schedule, so it never
// blocks on busy workers and its lateness is its own; each latency runs
// from the due time, so a stall counts against every request queued
// behind it.
func openLoop(e *env, t *tally, rec *recorder, sched []time.Duration, mix *shortMix, dur time.Duration) phase {
	type job struct {
		due time.Time
		s   session
	}
	queue := make(chan job, len(sched))
	var out phase
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < maxConns; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			c := &client{e: e, t: t, rec: rec, start: start}
			for j := range queue {
				sp := c.rec.beginAt("op.session.open", 0, j.due)
				el, ok := c.execChecked(e.tenants[idx], j.s, sp.id())
				sp.end()
				if ok {
					c.p.opExec.add(el)
					c.addOp(time.Since(j.due))
				}
			}
			mu.Lock()
			out.merge(&c.p)
			mu.Unlock()
		}(i)
	}
	for _, off := range sched {
		due := start.Add(off)
		waitUntil(due)
		out.late.add(time.Since(due))
		queue <- job{due: due, s: mix.next()}
	}
	close(queue)
	wg.Wait()
	out.dur = dur
	return out
}

// waitUntil returns at t. The runtime's own timers wake an idle
// process in millisecond steps, far coarser than the gaps between
// arrivals, so the generator sleeps in the kernel instead, which wakes
// it within tens of microseconds without spinning a processor.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// runBuild measures agent-build: closed-loop builds, each the chain of
// sessions in buildSessions, timed from the first request to the last
// reply.
func runBuild(w *workload, e *env, t *tally, rec *recorder, _ int64, dur time.Duration) phase {
	sessions := buildSessions("/view")
	return closedLoop(e, t, rec, dur, w.scrapeEvery, func(c *client, idx, iter int) bool {
		sp := c.rec.begin(w.root, 0)
		t0 := time.Now()
		var exec time.Duration
		ok := true
		for _, s := range sessions {
			el, good := c.execChecked(e.tenants[idx], s, sp.id())
			exec += el
			if !good {
				ok = false
				break
			}
		}
		sp.end()
		if ok {
			c.addOp(time.Since(t0))
			c.p.opExec.add(exec)
		}
		return ok
	})
}

// runChurn measures tenant-churn: closed-loop cycles of create (seeded
// spec), one checked echo, delete. The op latency is the create, kept
// only for cycles whose every step passed.
func runChurn(w *workload, e *env, t *tally, rec *recorder, seed int64, dur time.Duration) phase {
	var mixes [maxConns]*churnMix
	for i := range mixes {
		mixes[i] = newChurnMix(seed, i)
	}
	return closedLoop(e, t, rec, dur, w.scrapeEvery, func(c *client, idx, iter int) bool {
		kind, s := mixes[idx].next()
		sp := c.rec.begin(w.root, 0)
		defer sp.end()
		cs := c.rec.begin("client.create", sp.id())
		t0 := time.Now()
		id, err := e.d.create(kind.wireSpec(fmt.Sprintf("churn-%d-%d", idx, iter)))
		d := time.Since(t0)
		cs.end()
		if err != nil {
			c.t.fail("create %s: %v", churnKindNames[kind], err)
			return false
		}
		c.t.ok()
		el, ok := c.execChecked(id, s, sp.id())
		ds := c.rec.begin("client.delete", sp.id())
		err = e.d.remove(id)
		ds.end()
		if err != nil {
			c.t.fail("delete %s: %v", id, err)
			return false
		}
		c.t.ok()
		if ok {
			c.addOp(d)
			c.p.opExec.add(el)
		}
		return ok
	})
}
