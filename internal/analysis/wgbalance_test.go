package analysis

import "testing"

func TestWGBalanceSpawnWithoutAdd(t *testing.T) {
	const src = `package wg

import "sync"

func bad(ch chan int) {
	var wg sync.WaitGroup
	go func() {
		defer wg.Done()
		ch <- 1
	}()
	wg.Wait()
}
`
	checkAnalyzer(t, WGBalance, "example.com/wg", src, []want{
		{line: 7, message: "no wg.Add is guaranteed on every path before the spawn"},
	})
}

func TestWGBalanceConditionalAdd(t *testing.T) {
	const src = `package wg

import "sync"

func bad(x bool, ch chan int) {
	var wg sync.WaitGroup
	if x {
		wg.Add(1)
	}
	go func() {
		defer wg.Done()
		ch <- 1
	}()
	wg.Wait()
}
`
	checkAnalyzer(t, WGBalance, "example.com/wg", src, []want{
		{line: 10, message: "no wg.Add is guaranteed on every path before the spawn"},
	})
}

func TestWGBalanceNegativeCounter(t *testing.T) {
	const src = `package wg

import "sync"

func neg() {
	var wg sync.WaitGroup
	wg.Add(1)
	wg.Done()
	wg.Done()
}
`
	checkAnalyzer(t, WGBalance, "example.com/wg", src, []want{
		{line: 9, message: "drops the counter below zero on every path"},
	})
}

func TestWGBalanceAddInsideGoroutine(t *testing.T) {
	const src = `package wg

import "sync"

func inside(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		wg.Add(1)
		work()
		wg.Done()
		wg.Done()
	}()
	wg.Wait()
}
`
	checkAnalyzer(t, WGBalance, "example.com/wg", src, []want{
		{line: 9, message: "wg.Add inside the spawned goroutine races wg.Wait"},
	})
}

func TestWGBalanceAddAfterWait(t *testing.T) {
	const src = `package wg

import "sync"

func reuse(work func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	work()
	wg.Done()
	wg.Wait()
	wg.Add(1)
}
`
	checkAnalyzer(t, WGBalance, "example.com/wg", src, []want{
		{line: 11, message: "wg.Add after wg.Wait"},
	})
}

// Legal patterns: the canonical Add-before-spawn wave (with loop fan-out),
// variable Adds (unknown counts are left alone), and WaitGroups owned by a
// caller (parameters and fields are untracked).
func TestWGBalanceCleanPatterns(t *testing.T) {
	const src = `package wg

import "sync"

func wave(n int, ch chan int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch <- 1
		}()
	}
	wg.Wait()
}

func variable(n int) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

func caller(wg *sync.WaitGroup) {
	wg.Done()
}

type pool struct {
	wg sync.WaitGroup
}

func (p *pool) run(f func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		f()
	}()
}
`
	checkAnalyzer(t, WGBalance, "example.com/wg", src, nil)
}

func TestWGBalanceAllow(t *testing.T) {
	const src = `package wg

import "sync"

func external(start func(done func())) {
	var wg sync.WaitGroup
	go func() {
		//cadmc:allow wgbalance -- Add happens inside start before any Wait
		wg.Add(1)
		start(wg.Done)
	}()
	wg.Wait()
}
`
	checkAnalyzer(t, WGBalance, "example.com/wg", src, nil)
}

// A WaitGroup local to a goroutine nested two levels deep is analysed once,
// by the literal that declares it: the balanced wave there is clean, and the
// unbalanced one is reported exactly once, not again by each enclosing
// function.
func TestWGBalanceGoroutineLocalNestedTwoDeep(t *testing.T) {
	const src = `package wg

import "sync"

func nested(ch chan int) {
	go func() {
		go func() {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				ch <- 1
			}()
			wg.Wait()
		}()
	}()
	go func() {
		go func() {
			var wg sync.WaitGroup
			go func() {
				defer wg.Done()
				ch <- 2
			}()
			wg.Wait()
		}()
	}()
}
`
	checkAnalyzer(t, WGBalance, "example.com/wg", src, []want{
		{line: 20, message: "no wg.Add is guaranteed on every path before the spawn"},
	})
}
