package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"cadmc/internal/network"
)

// pipe returns the chaos-wrapped side of a net.Pipe plus the raw peer.
func pipe(t *testing.T, spec Spec, clock Clock) (*Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return Wrap(a, spec, clock), b
}

// drain reads from conn into a buffer until an error, signalling done.
func drain(conn net.Conn) (*bytes.Buffer, chan struct{}) {
	buf := &bytes.Buffer{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = io.Copy(buf, conn)
	}()
	return buf, done
}

func TestZeroSpecPassesThrough(t *testing.T) {
	c, peer := pipe(t, Spec{}, NewManualClock())
	buf, done := drain(peer)
	msg := []byte("hello across the chaos conn")
	n, err := c.Write(msg)
	if err != nil || n != len(msg) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	_ = c.Close()
	<-done
	if buf.String() != string(msg) {
		t.Fatalf("peer got %q, want %q", buf.String(), msg)
	}
}

func TestOutageWindowFailsIO(t *testing.T) {
	clock := NewManualClock()
	spec := Spec{Outages: []Window{{StartMS: 100, EndMS: 200}}}
	c, peer := pipe(t, spec, clock)
	_, done := drain(peer)

	// Before the window: fine.
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("pre-outage write: %v", err)
	}
	// Inside the window: injected reset, and the conn stays dead after.
	clock.Set(150 * time.Millisecond)
	if _, err := c.Write([]byte("y")); !errors.Is(err, ErrInjected) {
		t.Fatalf("outage write err = %v, want ErrInjected", err)
	}
	clock.Set(300 * time.Millisecond)
	if _, err := c.Write([]byte("z")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-outage write on dead conn err = %v, want ErrInjected", err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read on dead conn err = %v, want ErrInjected", err)
	}
	<-done
}

func TestResetProbOneKillsFirstWrite(t *testing.T) {
	c, peer := pipe(t, Spec{Seed: 1, ResetProb: 1}, NewManualClock())
	_, done := drain(peer)
	if _, err := c.Write([]byte("frame")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	<-done // the peer sees the close
}

func TestDropDeliversPrefixThenSilence(t *testing.T) {
	c, peer := pipe(t, Spec{Seed: 1, DropProb: 1}, NewManualClock())
	buf, done := drain(peer)
	msg := []byte("0123456789")
	n, err := c.Write(msg)
	if err != nil || n != len(msg) {
		t.Fatalf("dropped write must claim success: n=%d err=%v", n, err)
	}
	// Subsequent writes vanish silently too.
	if n, err := c.Write([]byte("more")); err != nil || n != 4 {
		t.Fatalf("silent write: n=%d err=%v", n, err)
	}
	_ = c.Close()
	<-done
	if got := buf.String(); got != "01234" {
		t.Fatalf("peer got %q, want the 5-byte prefix", got)
	}
}

func TestCutAfterBytesIsDeterministic(t *testing.T) {
	for trial := 0; trial < 2; trial++ {
		c, peer := pipe(t, Spec{CutAfterBytes: 8}, NewManualClock())
		buf, done := drain(peer)
		if _, err := c.Write([]byte("0123")); err != nil {
			t.Fatalf("first write: %v", err)
		}
		n, err := c.Write([]byte("456789"))
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("cut write err = %v, want ErrInjected", err)
		}
		if n != 4 {
			t.Fatalf("cut delivered %d bytes, want 4", n)
		}
		<-done
		if got := buf.String(); got != "01234567" {
			t.Fatalf("trial %d: peer got %q, want first 8 bytes", trial, got)
		}
	}
}

func TestListenerWrapsAcceptedConns(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clock := NewManualClock()
	lis := WrapListener(raw, Spec{Seed: 7, ResetProb: 1}, clock)
	lis.PerConn = func(i int64, spec Spec) Spec {
		if i >= 1 {
			spec.ResetProb = 0 // heal from the second connection on
		}
		return spec
	}
	defer lis.Close()

	accepted := make(chan net.Conn, 2)
	go func() {
		for i := 0; i < 2; i++ {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	for i := 0; i < 2; i++ {
		cl, err := net.Dial("tcp", raw.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		srvConn := <-accepted
		_, werr := srvConn.Write([]byte("pong"))
		if i == 0 {
			if !errors.Is(werr, ErrInjected) {
				t.Fatalf("conn 0 write err = %v, want ErrInjected", werr)
			}
		} else if werr != nil {
			t.Fatalf("healed conn 1 write: %v", werr)
		}
		_ = srvConn.Close()
	}
}

func TestFromScenarioSamplesOutages(t *testing.T) {
	sc, err := network.ByName("WiFi (weak) indoor")
	if err != nil {
		t.Fatal(err)
	}
	a := FromScenario(sc, 42, 120_000)
	b := FromScenario(sc, 42, 120_000)
	if len(a.Outages) == 0 {
		t.Fatal("weak-WiFi scenario must sample outage windows over 2 minutes")
	}
	if len(a.Outages) != len(b.Outages) {
		t.Fatalf("same seed, different windows: %d vs %d", len(a.Outages), len(b.Outages))
	}
	for i := range a.Outages {
		if a.Outages[i] != b.Outages[i] {
			t.Fatalf("window %d differs across same-seed runs", i)
		}
	}
	for _, w := range a.Outages {
		if w.EndMS <= w.StartMS || w.StartMS < 0 {
			t.Fatalf("malformed window %+v", w)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// A static scenario has no outage process.
	static, err := network.ByName("4G indoor static")
	if err != nil {
		t.Fatal(err)
	}
	if sp := FromScenario(static, 1, 120_000); len(sp.Outages) != 0 {
		t.Fatalf("static scenario sampled %d outages, want 0", len(sp.Outages))
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{LatencyMS: -1},
		{ResetProb: 1.5},
		{DropProb: -0.1},
		{CutAfterBytes: -3},
		{Outages: []Window{{StartMS: 5, EndMS: 5}}},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error for %+v", i, sp)
		}
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Fatalf("zero spec must validate: %v", err)
	}
}

func TestManualClock(t *testing.T) {
	c := NewManualClock()
	if c.Now() != 0 {
		t.Fatal("fresh manual clock must read zero")
	}
	c.Advance(30 * time.Millisecond)
	c.Advance(20 * time.Millisecond)
	if c.Now() != 50*time.Millisecond {
		t.Fatalf("clock = %v, want 50ms", c.Now())
	}
	c.Set(time.Second)
	if c.Now() != time.Second {
		t.Fatalf("clock = %v, want 1s", c.Now())
	}
}

func TestAutoClockStepsPerRead(t *testing.T) {
	c := NewAutoClock(time.Millisecond)
	for i := 0; i < 5; i++ {
		if got := c.Now(); got != time.Duration(i)*time.Millisecond {
			t.Fatalf("read %d = %v, want %v", i, got, time.Duration(i)*time.Millisecond)
		}
	}
	if got := c.Reads(); got != 5 {
		t.Fatalf("Reads = %d, want 5", got)
	}
}
