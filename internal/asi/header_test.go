package asi

import "testing"

func TestHeaderReverseFlipsOnlyDir(t *testing.T) {
	h := RouteHeader{TurnPool: 7, TurnPointer: 4, PI: PI5EventReporting, TC: 2}
	r := h.Reverse()
	if !r.Dir {
		t.Error("Reverse did not set Dir")
	}
	r.Dir = h.Dir
	if r != h {
		t.Errorf("Reverse changed fields beyond Dir: %+v vs %+v", r, h)
	}
	rr := h.Reverse().Reverse()
	if rr != h {
		t.Error("double Reverse is not identity")
	}
}

func TestHeaderString(t *testing.T) {
	h := RouteHeader{TurnPool: 1, TurnPointer: 4, Dir: true, PI: 4, TC: 7}
	if s := h.String(); s == "" {
		t.Error("empty String()")
	}
}
