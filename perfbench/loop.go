package main

import (
	"syscall"
	"time"
)

// opKind classifies a measured operation.
type opKind int

const (
	opWrite opKind = iota // a point POST or a snapshot/delta push
	opRead                // a hull or query GET
)

// op performs operation i and reports its kind and how many source
// points it got acknowledged (0 for reads and failures).
type op func(i int) (kind opKind, points int, err error)

// clock is the time source of a load loop; tests substitute a fake one.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var wallClock = clock{now: time.Now, sleep: preciseSleep}

// preciseSleep sleeps in a blocking nanosleep system call. A
// time.Sleep wakes through the runtime's network poller, whose wait
// rounds to whole milliseconds when the generator is otherwise idle;
// that rounding would count as generator lateness in every open-loop
// latency. The runtime hands the processor to other goroutines while
// the call blocks.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// sample is one successful operation.
type sample struct {
	start, done time.Time // scheduled (open loop) or actual (closed loop) send, and completion
	pts         int       // source points it got acknowledged
}

func (s sample) ms() float64 { return ms(s.done.Sub(s.start)) }

// tally collects one connection's measured operations. Each connection
// owns its tally, so recording takes no lock; tallies are merged after
// the loops return.
type tally struct {
	writes, reads []sample
	lateMS        []float64 // how late the generator sent each operation
	attempted     int
	failed        int
	firstErr      error
}

func (t *tally) record(k opKind, start, done time.Time, late time.Duration, pts int, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	s := sample{start: start, done: done, pts: pts}
	if k == opWrite {
		t.writes = append(t.writes, s)
	} else {
		t.reads = append(t.reads, s)
	}
	t.lateMS = append(t.lateMS, ms(late))
}

// merge folds o into t.
func (t *tally) merge(o *tally) {
	t.writes = append(t.writes, o.writes...)
	t.reads = append(t.reads, o.reads...)
	t.lateMS = append(t.lateMS, o.lateMS...)
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// closedLoop runs fn back to back from now until end: each operation is
// sent as soon as the previous one completed. Operations that start
// before warm run but are not recorded. The generator's lateness is the
// gap between one completion and the next send — its own overhead.
func closedLoop(clk clock, warm, end time.Time, t *tally, fn op) {
	prev := clk.now()
	for i := 0; ; i++ {
		start := clk.now()
		if !start.Before(end) {
			return
		}
		k, pts, err := fn(i)
		done := clk.now()
		if !start.Before(warm) {
			t.record(k, start, done, start.Sub(prev), pts, err)
		} else if err != nil {
			t.record(k, start, done, 0, 0, err)
		}
		prev = done
	}
}

// openLoop sends operation i at begin + i·interval, whatever earlier
// operations cost, on one connection. Each latency runs from the
// scheduled send time, so a stall that delays later sends is charged to
// them as well; lateness is how far the actual send trailed the
// schedule. Operations scheduled before warm run but are not recorded.
func openLoop(clk clock, begin, warm, end time.Time, interval time.Duration, t *tally, fn op) {
	for i := 0; ; i++ {
		due := begin.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return
		}
		if now := clk.now(); now.Before(due) {
			clk.sleep(due.Sub(now))
		}
		sent := clk.now()
		k, pts, err := fn(i)
		done := clk.now()
		if !due.Before(warm) {
			t.record(k, due, done, sent.Sub(due), pts, err)
		} else if err != nil {
			t.record(k, due, done, 0, 0, err)
		}
	}
}
