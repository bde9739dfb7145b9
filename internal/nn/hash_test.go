package nn

import "testing"

// The digests below were recorded from the fmt-based Model.Hash. They key
// the decision engine's memory pool and seed the accuracy oracle's jitter,
// so any change to the bytes Hash feeds FNV-1a shows up here.
var hashGolden = []struct {
	name    string
	input   Shape
	classes int
	digest  uint64
}{
	{"VGG11", ImageNetInput, 1000, 0x48ce7040eb76b943},
	{"VGG19", ImageNetInput, 1000, 0x87e78c7026d47e9e},
	{"AlexNet", ImageNetInput, 1000, 0x5f1ce85f07dc52b6},
	{"ResNet50", ImageNetInput, 1000, 0x26658de0de6b8037},
	{"ResNet101", ImageNetInput, 1000, 0xcb5ecaf867e4ed6f},
	{"ResNet152", ImageNetInput, 1000, 0xab613cf28a42db78},
	{"VGG11", CIFARInput, CIFARClasses, 0x4d565de55fc796ec},
	{"VGG19", CIFARInput, CIFARClasses, 0x8b588463c1ce4423},
	{"AlexNet", CIFARInput, CIFARClasses, 0xc9cc75a63979c5dd},
	{"ResNet50", CIFARInput, CIFARClasses, 0x16e5f265a2bb2034},
	{"ResNet101", CIFARInput, CIFARClasses, 0xd2457b68db2e1416},
	{"ResNet152", CIFARInput, CIFARClasses, 0x9ac5996d5bca08f5},
}

// compressedVariant is CIFAR VGG11 with hand-set compression fields, so the
// golden values cover every optional part of Layer.String.
func compressedVariant() *Model {
	m := VGG11(CIFARInput, CIFARClasses)
	m.Layers[0].Sparsity = 0.123456
	m.Layers[0].Tag = "F2"
	m.Layers[3].Bits = 8
	m.Layers[3].Tag = "Q1"
	m.Layers[4].Sparsity = 0.5
	m.Layers[4].Bits = 4
	m.Layers[4].Tag = "C1+F1"
	m.Layers[7].Sparsity = 0.00001
	m.Layers[7].Tag = "F1"
	return m
}

func TestHashGolden(t *testing.T) {
	for _, g := range hashGolden {
		m, err := Zoo(g.name, g.input, g.classes)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Hash(); got != g.digest {
			t.Errorf("%s %s: Hash = %#x, want %#x", g.name, g.input, got, g.digest)
		}
	}
	if got, want := compressedVariant().Hash(), uint64(0x63c30092a293cbfc); got != want {
		t.Errorf("compressed VGG11: Hash = %#x, want %#x", got, want)
	}
}

func TestLayerStringGolden(t *testing.T) {
	m := compressedVariant()
	want := []string{
		"Conv,3,1,1,64,sp=0.123,F2",
		"BN,0,0,0,0",
		"ReLU,0,0,0,0",
		"MaxPool,2,2,0,0,q8,Q1",
		"Conv,3,1,1,128,sp=0.5,q4,C1+F1",
		"BN,0,0,0,0",
		"ReLU,0,0,0,0",
		"MaxPool,2,2,0,0,sp=1e-05,F1",
		"Conv,3,1,1,256",
	}
	for i, w := range want {
		if got := m.Layers[i].String(); got != w {
			t.Errorf("layer %d: String = %q, want %q", i, got, w)
		}
	}
	r := ResNet50(ImageNetInput, 1000)
	if got, want := r.Layers[12].String(), "Add,1,1,0,256"; got != want {
		t.Errorf("ResNet50 projection add: String = %q, want %q", got, want)
	}
}

func TestHashDoesNotAllocate(t *testing.T) {
	m := compressedVariant()
	if allocs := testing.AllocsPerRun(20, func() { m.Hash() }); allocs != 0 {
		t.Errorf("Hash allocates %.0f times per call, want 0", allocs)
	}
}
