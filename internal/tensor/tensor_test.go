package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Len() != 24 {
		t.Fatalf("Len() = %d, want 24", tt.Len())
	}
	for i, v := range tt.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSlice(t *testing.T) {
	tt, err := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := tt.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %v, want 6", got)
	}
	if _, err := FromSlice([]float64{1, 2}, 3); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	tt := New(3, 4)
	tt.Set(7.5, 2, 1)
	if got := tt.At(2, 1); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := tt.Data[2*4+1]; got != 7.5 {
		t.Fatalf("row-major offset = %v, want 7.5", got)
	}
}

func TestReshape(t *testing.T) {
	tt := New(2, 6)
	tt.Data[7] = 3
	r, err := tt.Reshape(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.At(1, 3); got != 3 {
		t.Fatalf("reshaped At(1,3) = %v, want 3 (shared data)", got)
	}
	if _, err := tt.Reshape(5, 5); err == nil {
		t.Fatal("expected reshape size-mismatch error")
	}
}

func TestMatMulSmall(t *testing.T) {
	a, _ := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b, _ := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("C[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a := New(2, 3)
	b := New(4, 2)
	if _, err := MatMul(a, b); err == nil {
		t.Fatal("expected inner-dimension mismatch error")
	}
	if _, err := MatMul(New(3), b); err == nil {
		t.Fatal("expected rank error")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 5, 7)
	at, err := Transpose(a)
	if err != nil {
		t.Fatal(err)
	}
	att, err := Transpose(at)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != att.Data[i] {
			t.Fatalf("transpose twice differs at %d", i)
		}
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random small matrices.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		ab, err := MatMul(a, b)
		if err != nil {
			return false
		}
		abT, _ := Transpose(ab)
		bT, _ := Transpose(b)
		aT, _ := Transpose(a)
		bTaT, err := MatMul(bT, aT)
		if err != nil {
			return false
		}
		for i := range abT.Data {
			if math.Abs(abT.Data[i]-bTaT.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDotAndNorm(t *testing.T) {
	a, _ := FromSlice([]float64{3, 4}, 2)
	if got := a.Norm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	d, err := Dot(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if d != 25 {
		t.Fatalf("Dot = %v, want 25", d)
	}
	if _, err := Dot(a, New(3)); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(4)
	c := a.Clone()
	c.Data[0] = 9
	if a.Data[0] != 0 {
		t.Fatal("clone shares storage with original")
	}
}

func TestScaleAndAddInPlace(t *testing.T) {
	a, _ := FromSlice([]float64{1, 2}, 2)
	b, _ := FromSlice([]float64{10, 20}, 2)
	a.Scale(3)
	if err := a.AddInPlace(b); err != nil {
		t.Fatal(err)
	}
	if a.Data[0] != 13 || a.Data[1] != 26 {
		t.Fatalf("got %v, want [13 26]", a.Data)
	}
	if err := a.AddInPlace(New(3)); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

// Relu must agree bit for bit with the branchy `if v < 0 { v = 0 }` it
// replaces, on every class of float64: both zeros, subnormals, normals,
// both infinities and NaNs of either sign with assorted payloads.
func TestReluMatchesBranch(t *testing.T) {
	branch := func(v float64) float64 {
		if v < 0 {
			v = 0
		}
		return v
	}
	bits := []uint64{
		0, 1, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x3FF0000000000000,
		0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000, 0x7FF0000000000001,
		0x7FF8000000000000, 0x7FF8000000000001, 0x7FFFFFFFFFFFFFFF,
	}
	for _, b := range append([]uint64(nil), bits...) {
		bits = append(bits, b|1<<63)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		bits = append(bits, rng.Uint64())
	}
	for _, b := range bits {
		v := math.Float64frombits(b)
		if got, want := math.Float64bits(Relu(v)), math.Float64bits(branch(v)); got != want {
			t.Fatalf("Relu(%#x) = %#x, want %#x", b, got, want)
		}
	}
}
