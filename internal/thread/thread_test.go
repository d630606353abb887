package thread

import "testing"

func TestNew(t *testing.T) {
	th := New(3, 12, 5000)
	if th.ID != 3 || th.Regs != 12 || th.WorkLeft != 5000 {
		t.Errorf("thread = %+v", th)
	}
	if th.State != Unstarted {
		t.Errorf("initial state = %v", th.State)
	}
}

func TestNewPanics(t *testing.T) {
	for _, c := range []struct {
		regs int
		work int64
	}{{0, 100}, {-1, 100}, {8, 0}, {8, -5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(regs=%d, work=%d) did not panic", c.regs, c.work)
				}
			}()
			New(0, c.regs, c.work)
		}()
	}
}

func TestLoadUnloadCost(t *testing.T) {
	// Section 3.1: load/unload cost is 1 cycle per required register
	// plus a 10-cycle blocking/unblocking overhead — and depends on C,
	// not the allocated context size.
	th := New(0, 17, 100)
	if th.LoadCost() != 27 || th.UnloadCost() != 27 {
		t.Errorf("costs = %d/%d want 27", th.LoadCost(), th.UnloadCost())
	}
}

func TestStateHelpers(t *testing.T) {
	th := New(0, 8, 100)
	cases := []struct {
		s        State
		runnable bool
	}{
		{Unstarted, false},
		{ReadyUnloaded, false},
		{ReadyResident, true},
		{BlockedResident, false},
		{BlockedUnloaded, false},
		{Done, false},
	}
	for _, c := range cases {
		th.State = c.s
		if th.Runnable() != c.runnable {
			t.Errorf("%v: Runnable() = %v", c.s, th.Runnable())
		}
	}
}

func TestStateStrings(t *testing.T) {
	if ReadyResident.String() != "ready-resident" || Done.String() != "done" {
		t.Error("state names wrong")
	}
	if State(99).String() != "state(99)" {
		t.Errorf("invalid state = %q", State(99).String())
	}
}
