package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ps"},
		{1500, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3500 * Microsecond, "3.500ms"},
		{2 * Second, "2.000000s"},
		{-1500, "-1.500ns"},
		{math.MaxInt64, "9223372.036855s"},
		{math.MinInt64, "-9223372.036855s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	t1 := t0.Add(50)
	if t1 != 150 {
		t.Errorf("Add: got %v", t1)
	}
	if d := t1.Sub(t0); d != 50 {
		t.Errorf("Sub: got %v", d)
	}
}

func TestUnitConstructors(t *testing.T) {
	if Micros(2.5) != 2500*Nanosecond {
		t.Errorf("Micros(2.5) = %v", Micros(2.5))
	}
	if Nanos(1.5) != 1500*Picosecond {
		t.Errorf("Nanos(1.5) = %v", Nanos(1.5))
	}
	if Seconds(0.001) != Millisecond {
		t.Errorf("Seconds(0.001) = %v", Seconds(0.001))
	}
}

func TestScale(t *testing.T) {
	d := 10 * Microsecond
	if got := d.Scale(0.5); got != 5*Microsecond {
		t.Errorf("Scale(0.5) = %v", got)
	}
	if got := d.Scale(1); got != d {
		t.Errorf("Scale(1) = %v", got)
	}
	if got := d.Scale(4); got != 40*Microsecond {
		t.Errorf("Scale(4) = %v", got)
	}
	if got := Duration(-1000).Scale(2); got != -2000 {
		t.Errorf("negative Scale = %v", got)
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	f := func(ps int32) bool {
		d := Duration(ps)
		return Seconds(d.Seconds()) == d || ps < 0 // Seconds() rounds; negatives excluded
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
