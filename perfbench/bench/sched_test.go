package bench

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestScheduleSameSeedSameArrivals(t *testing.T) {
	shape := OnOff{Period: 100 * time.Millisecond, Duty: 0.5}
	for _, bursty := range []bool{false, true} {
		mk := func(seed int64) *Arrivals {
			rng := rand.New(rand.NewSource(seed))
			var a *Arrivals
			var err error
			if bursty {
				a, err = Bursty(rng, 3000, 2*time.Second, 64, shape)
			} else {
				a, err = Poisson(rng, 3000, 2*time.Second, 64)
			}
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		a, b, c := mk(7), mk(7), mk(8)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("bursty=%v: same seed gave different schedules", bursty)
		}
		if reflect.DeepEqual(a.Due, c.Due) {
			t.Fatalf("bursty=%v: different seeds gave the same schedule", bursty)
		}
	}
}

func TestScheduleMeanRate(t *testing.T) {
	const rate = 5000.0
	span := time.Duration(1e5 / rate * float64(time.Second)) // about 10^5 arrivals
	for _, bursty := range []bool{false, true} {
		rng := rand.New(rand.NewSource(1))
		var a *Arrivals
		var err error
		if bursty {
			a, err = Bursty(rng, rate, span, 16, OnOff{Period: 100 * time.Millisecond, Duty: 0.5})
		} else {
			a, err = Poisson(rng, rate, span, 16)
		}
		if err != nil {
			t.Fatal(err)
		}
		got := float64(len(a.Due)) / span.Seconds()
		if math.Abs(got-rate)/rate > 0.02 {
			t.Fatalf("bursty=%v: mean rate %.1f/s over %d arrivals, want within 2%% of %.0f", bursty, got, len(a.Due), rate)
		}
		for i := 1; i < len(a.Due); i++ {
			if a.Due[i] < a.Due[i-1] {
				t.Fatalf("bursty=%v: arrival %d precedes arrival %d", bursty, i, i-1)
			}
		}
	}
}

func TestScheduleDutyCycle(t *testing.T) {
	const rate = 4000.0
	shape := OnOff{Period: 80 * time.Millisecond, Duty: 0.25}
	span := 25 * time.Second
	a, err := Bursty(rand.New(rand.NewSource(3)), rate, span, 16, shape)
	if err != nil {
		t.Fatal(err)
	}
	onLen := time.Duration(float64(shape.Period) * shape.Duty)
	firstHalf := 0
	for _, d := range a.Due {
		phase := d % shape.Period
		if phase >= onLen {
			t.Fatalf("arrival at %v falls in an off-window (phase %v of %v, on for %v)", d, phase, shape.Period, onLen)
		}
		if phase < onLen/2 {
			firstHalf++
		}
	}
	// Inside the on-windows the process runs at rate/Duty, so the mean rate
	// holds and arrivals spread evenly across each burst.
	got := float64(len(a.Due)) / span.Seconds()
	if math.Abs(got-rate)/rate > 0.02 {
		t.Fatalf("mean rate %.1f/s, want within 2%% of %.0f", got, rate)
	}
	if share := float64(firstHalf) / float64(len(a.Due)); math.Abs(share-0.5) > 0.02 {
		t.Fatalf("%.3f of arrivals in the first half of the on-window, want 0.5", share)
	}
}

func TestScheduleRejectsBadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Poisson(rng, 0, time.Second, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Bursty(rng, 10, time.Second, 1, OnOff{Period: time.Second, Duty: 1.5}); err == nil {
		t.Fatal("duty above 1 accepted")
	}
}
