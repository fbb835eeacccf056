package simkernel

import (
	"errors"
	"testing"
	"time"
)

// TestSchedulerStepZeroAllocs pins the tentpole property of the event loop:
// dispatching a periodic task's steady-state cycle — pop the head event,
// fire, re-push the task's reusable event — performs zero allocations.
func TestSchedulerStepZeroAllocs(t *testing.T) {
	start := time.Date(2010, 2, 19, 0, 0, 0, 0, time.UTC)
	s := NewScheduler(start)
	var fired int
	if err := s.Periodic(start.Add(time.Minute), time.Minute, nil, func(now time.Time) {
		fired++
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // settle the queue
		if !s.Step() {
			t.Fatal("queue drained during warmup")
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		if !s.Step() {
			t.Fatal("queue drained")
		}
	})
	if avg != 0 {
		t.Errorf("Scheduler.Step on a periodic task allocates %.2f objs/event, want 0", avg)
	}
	if fired < 1000 {
		t.Fatalf("task fired %d times, expected >= 1000", fired)
	}
}

// TestSchedulerStepZeroAllocsContended repeats the allocation bound with
// several interleaved tasks, so the measurement covers the heap path (not
// just the single-task head-slot shortcut).
func TestSchedulerStepZeroAllocsContended(t *testing.T) {
	start := time.Date(2010, 2, 19, 0, 0, 0, 0, time.UTC)
	s := NewScheduler(start)
	periods := []time.Duration{time.Minute, 7 * time.Minute, 10 * time.Minute, 15 * time.Minute}
	for _, p := range periods {
		if err := s.Periodic(start.Add(p), p, nil, func(now time.Time) {}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		s.Step()
	}
	avg := testing.AllocsPerRun(2000, func() {
		if !s.Step() {
			t.Fatal("queue drained")
		}
	})
	if avg != 0 {
		t.Errorf("contended Scheduler.Step allocates %.2f objs/event, want 0", avg)
	}
}

// TestOneShotEventReuse verifies the free list: once a fired one-shot event
// has been recycled, scheduling and dispatching further one-shots allocates
// nothing.
func TestOneShotEventReuse(t *testing.T) {
	start := time.Date(2010, 2, 19, 0, 0, 0, 0, time.UTC)
	s := NewScheduler(start)
	nop := func(now time.Time) {}
	// Prime the free list with one fired event.
	if err := s.At(s.Now().Add(time.Second), nop); err != nil {
		t.Fatal(err)
	}
	if !s.Step() {
		t.Fatal("priming event did not fire")
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := s.At(s.Now().Add(time.Second), nop); err != nil {
			t.Fatal(err)
		}
		if !s.Step() {
			t.Fatal("event did not fire")
		}
	})
	if avg != 0 {
		t.Errorf("recycled one-shot schedule+dispatch allocates %.2f objs, want 0", avg)
	}
}

// TestScheduleRejectsPastAndRecordsFault covers the fix for the silently
// dropped re-schedule error: scheduling in the past fails with ErrPast, and
// a task whose re-schedule fails surfaces the fault through Scheduler.Err
// instead of swallowing it.
func TestScheduleRejectsPastAndRecordsFault(t *testing.T) {
	start := time.Date(2010, 2, 19, 0, 0, 0, 0, time.UTC)
	s := NewScheduler(start)
	tk := &task{sched: s, period: time.Minute, fire: func(now time.Time) {}}
	tk.ev.fire = tk.run
	if err := tk.scheduleNext(start.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if s.Err() != nil {
		t.Fatalf("fresh task reports scheduler err %v", s.Err())
	}

	// The task-internal requeue clamps past due times to now, so its error
	// path is defensive; exercise the underlying validation directly.
	var ev event
	if err := s.schedule(&ev, start.Add(-time.Second), func(now time.Time) {}); !errors.Is(err, ErrPast) {
		t.Fatalf("past schedule error %v, want ErrPast", err)
	}

	// run() clamps a past base to now, so a normal cycle records no fault...
	tk.base = start.Add(-time.Hour)
	tk.run(s.Now())
	if s.Err() != nil {
		t.Fatalf("clamped re-schedule faulted: %v", s.Err())
	}
	// ...but a recorded fault must surface through the accessor.
	s.fault = ErrPast
	if !errors.Is(s.Err(), ErrPast) {
		t.Fatal("recorded fault not surfaced by Scheduler.Err")
	}
}

// TestTaskEventNotRecycled guards the free-list invariant: a task's own
// event must never be handed to the free list when it fires, because the
// task re-pushes that same event for every later cycle.
func TestTaskEventNotRecycled(t *testing.T) {
	start := time.Date(2010, 2, 19, 0, 0, 0, 0, time.UTC)
	s := NewScheduler(start)
	if err := s.Periodic(start.Add(time.Minute), time.Minute, nil, func(now time.Time) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !s.Step() {
			t.Fatal("periodic task did not fire")
		}
	}
	if len(s.free) != 0 {
		t.Fatalf("scheduler recycled %d task-owned events into the free list", len(s.free))
	}
}
