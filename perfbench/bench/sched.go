package bench

import (
	"fmt"
	"math/rand"
	"time"
)

// Arrivals is an open-loop arrival schedule: Due[i] is when request i is due,
// as an offset from the start of its phase, and Input[i] picks the input it
// carries from the workload's input pool. Schedules are built in set-up,
// before anything is measured, so the generator only has to follow them.
type Arrivals struct {
	Rate  float64 // target mean rate, requests per second
	Span  time.Duration
	Due   []time.Duration
	Input []int32
}

// OnOff shapes a bursty schedule: arrivals come only during the first
// Duty·Period of every Period, at Rate/Duty, so the mean rate stays Rate.
type OnOff struct {
	Period time.Duration
	Duty   float64
}

// Poisson builds a Poisson schedule of the given mean rate over span, with
// inputs drawn uniformly from a pool of poolSize.
func Poisson(rng *rand.Rand, rate float64, span time.Duration, poolSize int) (*Arrivals, error) {
	return build(rng, rate, span, poolSize, OnOff{Period: span, Duty: 1})
}

// Bursty builds an on/off schedule: a Poisson process of rate rate/Duty that
// runs only inside the on-windows of shape.
func Bursty(rng *rand.Rand, rate float64, span time.Duration, poolSize int, shape OnOff) (*Arrivals, error) {
	return build(rng, rate, span, poolSize, shape)
}

// build draws exponential gaps in "on-time" — time counted only inside
// on-windows — and maps each arrival onto the wall axis by skipping the
// off-windows, which yields exactly rate/Duty inside bursts and nothing
// between them.
func build(rng *rand.Rand, rate float64, span time.Duration, poolSize int, shape OnOff) (*Arrivals, error) {
	if rate <= 0 || span <= 0 || poolSize <= 0 {
		return nil, fmt.Errorf("bench: schedule needs positive rate, span and pool (got %v, %v, %d)", rate, span, poolSize)
	}
	if shape.Period <= 0 || shape.Duty <= 0 || shape.Duty > 1 {
		return nil, fmt.Errorf("bench: on/off shape needs a positive period and a duty in (0,1], got %+v", shape)
	}
	onLen := float64(shape.Period) * shape.Duty
	burstRate := rate / shape.Duty / float64(time.Second) // arrivals per on-time nanosecond
	a := &Arrivals{Rate: rate, Span: span}
	n := int(rate*span.Seconds()*1.1) + 16
	a.Due = make([]time.Duration, 0, n)
	a.Input = make([]int32, 0, n)
	on := 0.0
	for {
		on += rng.ExpFloat64() / burstRate
		k := int64(on / onLen)
		t := time.Duration(float64(k)*float64(shape.Period) + (on - float64(k)*onLen))
		if t >= span {
			return a, nil
		}
		a.Due = append(a.Due, t)
		a.Input = append(a.Input, int32(rng.Intn(poolSize)))
	}
}
