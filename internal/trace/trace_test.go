package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func svc(rank, origin int, arrived, start, end int64, intr, hw bool) Service {
	return Service{Rank: rank, Origin: origin, Kind: "ACC", Bytes: 8,
		Arrived: sim.Time(arrived), Start: sim.Time(start), End: sim.Time(end),
		Interrupt: intr, Hardware: hw}
}

func TestNilAndDisabledTracerSafe(t *testing.T) {
	var nilT *Tracer
	if nilT.Enabled() {
		t.Error("nil tracer enabled")
	}
	nilT.RecordService(svc(0, 1, 0, 0, 1, false, false))
	if nilT.Services() != nil || nilT.Profiles() != nil || nilT.TotalDelay() != 0 {
		t.Error("nil tracer not inert")
	}
	var zero Tracer
	zero.RecordService(svc(0, 1, 0, 0, 1, false, false))
	if len(zero.Services()) != 0 {
		t.Error("zero-value tracer recorded")
	}
}

func TestDelayAndProfiles(t *testing.T) {
	tr := New()
	tr.RecordService(svc(5, 0, 100, 150, 170, false, false)) // 50 delay, 20 busy
	tr.RecordService(svc(5, 1, 200, 210, 240, true, false))  // 10 delay, 30 busy
	tr.RecordService(svc(7, 0, 0, 0, 5, false, false))
	tr.RecordService(svc(-1, 2, 9, 9, 9, false, true)) // NIC

	if got := tr.TotalDelay(); got != 60 {
		t.Fatalf("TotalDelay = %v", got)
	}
	ps := tr.Profiles()
	if len(ps) != 3 {
		t.Fatalf("%d profiles", len(ps))
	}
	if ps[0].Rank != -1 || ps[1].Rank != 5 || ps[2].Rank != 7 {
		t.Fatalf("profile order: %+v", ps)
	}
	p5 := ps[1]
	if p5.Services != 2 || p5.Busy != 50 || p5.Delay != 60 ||
		p5.MaxDelay != 50 || p5.Interrupts != 1 || p5.Bytes != 16 {
		t.Fatalf("rank5 profile: %+v", p5)
	}
	out := tr.Render()
	if !strings.Contains(out, "NIC") || !strings.Contains(out, "stall") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestServiceDelay(t *testing.T) {
	s := svc(0, 0, 10, 35, 40, false, false)
	if s.Delay() != 25 {
		t.Fatalf("delay = %v", s.Delay())
	}
}

func TestReserve(t *testing.T) {
	tr := New()
	tr.RecordService(svc(0, 1, 0, 0, 1, false, false))
	tr.Reserve(1024)
	if cap(tr.services) < 1024 {
		t.Fatalf("cap = %d after Reserve(1024)", cap(tr.services))
	}
	if len(tr.Services()) != 1 || tr.Services()[0].Rank != 0 {
		t.Fatal("Reserve lost existing records")
	}
	base := &tr.services[:cap(tr.services)][0]
	for i := 0; i < 1023; i++ {
		tr.RecordService(svc(i, 0, 0, 0, 1, false, false))
	}
	if &tr.services[0] != base {
		t.Error("appends within reserved capacity reallocated the buffer")
	}
	// Disabled and nil tracers ignore Reserve.
	var zero Tracer
	zero.Reserve(64)
	if cap(zero.services) != 0 {
		t.Error("disabled tracer reserved")
	}
	var nilT *Tracer
	nilT.Reserve(64) // must not panic
}
