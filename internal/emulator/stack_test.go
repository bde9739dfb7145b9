package emulator

import (
	"errors"
	"math/rand"
	"testing"

	"cadmc/internal/faultnet"
	"cadmc/internal/gateway"
	"cadmc/internal/serving"
	"cadmc/internal/tensor"
)

// TestStackCloseStopsGateway closes a stack whose gateway is still running:
// Close must stop the gateway (later submits are shed with ErrClosed), close
// the server and return Serve's error, which is nil on a clean shutdown.
func TestStackCloseStopsGateway(t *testing.T) {
	st, err := NewStack()
	if err != nil {
		t.Fatal(err)
	}
	provider, err := st.Provider(3)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := st.Gateway(gateway.Config{Workers: 2}, faultnet.Spec{}, serving.ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := provider.ForClass(len(classMbps) - 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.SetVariant(v); err != nil {
		t.Fatal(err)
	}
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rand.New(rand.NewSource(4)), 1, 3, 16, 16)
	ch, err := gw.Submit("s", x)
	if err != nil {
		t.Fatal(err)
	}
	if res := <-ch; res.Err != nil || res.Route != serving.RouteOffloaded {
		t.Fatalf("request before Close: route %v, err %v; want offloaded", res.Route, res.Err)
	}

	if err := st.Close(); err != nil {
		t.Fatalf("Close = %v, want Serve's nil error", err)
	}
	if _, err := gw.Submit("s", x); !errors.Is(err, gateway.ErrClosed) {
		t.Fatalf("Submit after Close = %v, want %v", err, gateway.ErrClosed)
	}
	if rep := gw.Stop(); rep.Completed != 1 || rep.Admitted != rep.Completed+rep.Shed {
		t.Fatalf("report after Close: %+v", rep)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close = %v, want the first call's nil", err)
	}
}
