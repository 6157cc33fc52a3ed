package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// A Server's backlog is a FIFO threaded through the jobs themselves,
// with one resident event for its head. The contract is the one the
// whole fast path has: the popped events — every (at, seq) — and what
// each job observes are exactly those of scheduling every completion
// eagerly, which is what a Server does with the fast paths off.

// linkedJob carries its own queue link; plainJob does not and waits
// through a node of the server's. Both log when they run and may
// resubmit themselves from their own Step.
type linkedJob struct {
	link Link
	plainJob
}

func (j *linkedJob) QueueLink() *Link { return &j.link }
func (j *linkedJob) Step()            { j.plainJob.step(j) }

type plainJob struct {
	s     *Server
	name  string
	again int      // resubmissions left
	d     Duration // service time of a resubmission
	logf  func(format string, args ...interface{})
}

func (j *plainJob) Step() { j.step(j) }

func (j *plainJob) step(self Runner) {
	j.logf("%s", j.name)
	if j.again > 0 {
		j.again--
		j.s.SubmitRun(j.s.eng.now, j.d, self)
	}
}

// serverScript submits a seeded mix of linked Runners, plain Runners and
// closures to one server from several instants, some while it is idle
// and some behind a standing backlog, beside unrelated events that land
// on the same times.
func serverScript(e *Engine, logf func(format string, args ...interface{})) {
	rng := rand.New(rand.NewSource(11))
	s := NewServer(e)
	n := 0
	submit := func() {
		n++
		name := fmt.Sprintf("job%d", n)
		ready := e.now + Time(rng.Intn(40))
		d := Duration(1 + rng.Intn(30))
		base := plainJob{s: s, name: name, again: rng.Intn(3) / 2 * (1 + rng.Intn(2)), d: d, logf: logf}
		switch rng.Intn(3) {
		case 0:
			s.SubmitRun(ready, d, &linkedJob{plainJob: base})
		case 1:
			s.SubmitRun(ready, d, &base)
		default:
			s.SubmitRun(ready, d, funcRunner(func() { logf("%s (closure)", name) }))
		}
	}
	for burst := 0; burst < 12; burst++ {
		at := Time(burst * 97)
		e.At(at, func() {
			for i := rng.Intn(24); i >= 0; i-- {
				submit()
			}
		})
		e.At(at+Time(rng.Intn(97)), func() { logf("bystander") })
	}
	// The backlog has long drained: each of these is alone on the server
	// when it resubmits from its own Step.
	e.At(5000, func() {
		s.SubmitRun(e.now, 7, &linkedJob{plainJob: plainJob{s: s, name: "lone linked", again: 3, d: 7, logf: logf}})
	})
	e.At(6000, func() {
		s.SubmitRun(e.now, 7, &plainJob{s: s, name: "lone plain", again: 3, d: 7, logf: logf})
	})
}

func TestServerBacklogMatchesEagerSchedule(t *testing.T) {
	run := func(fastOff bool) runOutcome {
		e := New(1)
		if fastOff {
			e.DisableFastPaths()
		}
		var out runOutcome
		logf := func(format string, args ...interface{}) {
			out.log = append(out.log, fmt.Sprintf("t=%d seq=%d n=%d ", e.now, e.seq, e.executed)+
				fmt.Sprintf(format, args...))
		}
		serverScript(e, logf)
		out.trace, _ = recordRun(e)
		out.now, out.seq, out.executed, out.live = e.now, e.seq, e.executed, e.live
		return out
	}
	backlog, eager := run(false), run(true)
	if len(backlog.log) < 150 {
		t.Fatalf("only %d jobs ran; the script is too thin to compare anything", len(backlog.log))
	}
	if !reflect.DeepEqual(backlog, eager) {
		for i := range backlog.log {
			if i >= len(eager.log) || backlog.log[i] != eager.log[i] {
				t.Fatalf("first difference at observation %d:\n backlog %q\n eager   %q", i, backlog.log[i], eager.log[i:][:1])
			}
		}
		t.Fatalf("outcomes differ:\n backlog %+v\n eager   %+v", backlog, eager)
	}
}

// TestServerReleaseDropsBacklog: a released server lets go of every
// queued job at once — their links are free for another queue — and its
// resident event fires as a no-op.
func TestServerReleaseDropsBacklog(t *testing.T) {
	e := New(1)
	dead, heir := NewServer(e), NewServer(e)
	var ran []string
	logf := func(format string, args ...interface{}) { ran = append(ran, fmt.Sprintf(format, args...)) }
	jobs := make([]*linkedJob, 8)
	for i := range jobs {
		jobs[i] = &linkedJob{plainJob: plainJob{name: fmt.Sprintf("job%d", i), logf: logf}}
		dead.SubmitRun(0, 10, jobs[i])
	}
	e.At(25, func() { // two jobs done, the third in service
		dead.Release()
		for _, j := range jobs[2:] {
			heir.SubmitRun(e.now, 5, j)
		}
	})
	e.MustRun()
	want := []string{"job0", "job1", "job2", "job3", "job4", "job5", "job6", "job7"}
	if !reflect.DeepEqual(ran, want) {
		t.Fatalf("ran %v, want each job once: %v", ran, want)
	}
	if got, want := e.now, Time(25+6*5); got != want {
		t.Fatalf("last completion at %d, want %d (the heir's schedule)", got, want)
	}
}
