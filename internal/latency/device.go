// Package latency implements the paper's latency estimation model:
// computational latency linear in MACCs with per-device, per-kernel-size
// coefficients (Sec. V-B, Fig. 5), transfer latency Tt = f(S|W) + S/W
// (Eq. 6), and the end-to-end decomposition T = Te + Tt + Tc (Eq. 3).
// It also provides the least-squares fitting routines used to calibrate the
// model against (synthetic) measurements, regenerating Fig. 5.
package latency

import (
	"fmt"
	"sort"
)

// Device is a computational platform profile. Computational latency of a
// layer is coeff(layer) · MACCs + overhead, in nanoseconds, where the
// coefficient depends on the layer kind and, for convolutions, the kernel
// size — the linearity structure the paper measured ("the coefficients
// differ by kernel sizes for Conv layers", Sec. V-B).
type Device struct {
	Name string
	// ConvCoeffNS maps kernel size → ns per MACC for convolution layers.
	ConvCoeffNS map[int]float64
	// DefaultConvCoeffNS is used for kernel sizes absent from ConvCoeffNS.
	DefaultConvCoeffNS float64
	// FCCoeffNS is ns per MACC for fully-connected layers (a single
	// coefficient per device, per the paper).
	FCCoeffNS float64
	// LayerOverheadNS is a fixed per-weighted-layer cost (kernel launch /
	// dispatch). It models why GPU platforms deviate from pure linearity at
	// small layer sizes.
	LayerOverheadNS float64
	// DepthwiseInefficiency multiplies the conv coefficient for depth-wise
	// convolutions: they have far lower arithmetic intensity than standard
	// convolutions, so their ns/MACC is several times worse on every real
	// platform. Values < 1 are treated as 1.
	DepthwiseInefficiency float64
	// SmallMapPixels models why per-MACC cost worsens on small feature maps
	// (SIMD lanes and threads underutilised): spatial-layer coefficients
	// scale by 1 + sqrt(SmallMapPixels / (Hout·Wout)). Zero disables the
	// effect. This is what reconciles the paper's Table I (224×224 inputs,
	// ≈0.29 ns/MACC) with its CIFAR-scale latencies (≈0.5 ns/MACC
	// effective).
	SmallMapPixels float64
}

// Validate checks the profile for usable coefficients.
func (d Device) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("latency: device without a name")
	}
	if d.DefaultConvCoeffNS <= 0 || d.FCCoeffNS <= 0 {
		return fmt.Errorf("latency: device %q has non-positive coefficients", d.Name)
	}
	kernels := make([]int, 0, len(d.ConvCoeffNS))
	for k := range d.ConvCoeffNS {
		kernels = append(kernels, k)
	}
	sort.Ints(kernels)
	for _, k := range kernels {
		if d.ConvCoeffNS[k] <= 0 {
			return fmt.Errorf("latency: device %q kernel-%d coefficient non-positive", d.Name, k)
		}
	}
	return nil
}

// convCoeff returns the ns/MACC coefficient for the given kernel size.
func (d *Device) convCoeff(kernel int) float64 {
	if c, ok := d.ConvCoeffNS[kernel]; ok {
		return c
	}
	return d.DefaultConvCoeffNS
}

// Phone returns the profile calibrated against the paper's Xiaomi MI 6X
// measurements (Table I: VGG19 at 224×224 ≈ 5735 ms ⇒ ≈ 0.29 ns/MACC for
// 3×3 convolutions; CPU platforms are strongly linear in MACCs).
func Phone() Device {
	return Device{
		Name: "XiaomiMI6X",
		ConvCoeffNS: map[int]float64{
			1:  0.26,
			3:  0.29,
			5:  0.31,
			7:  0.33,
			11: 0.36,
		},
		DefaultConvCoeffNS: 0.30,
		FCCoeffNS:          0.24,
		// Mobile inference frameworks pay a visible per-layer dispatch cost
		// that dominates at CIFAR-scale feature maps (and is invisible at
		// the 224×224 scale of Table I).
		LayerOverheadNS:       2e6,
		DepthwiseInefficiency: 3.5,
		SmallMapPixels:        25,
	}
}

// TX2 returns the NVIDIA Jetson TX2 profile. The TX2 is GPU-based: its
// throughput coefficient is lower than the phone's but per-layer launch
// overhead is large, so small CIFAR-scale layers underutilise it — matching
// the paper's observation that GPU linearity is "obscure" and its Table V
// field numbers where full on-device VGG11 costs ≈100 ms.
func TX2() Device {
	return Device{
		Name: "JetsonTX2",
		ConvCoeffNS: map[int]float64{
			1: 0.18,
			3: 0.22,
			5: 0.24,
		},
		DefaultConvCoeffNS:    0.23,
		FCCoeffNS:             0.20,
		LayerOverheadNS:       1.5e6, // 1.5 ms launch per layer
		DepthwiseInefficiency: 4.0,   // GPUs hate low arithmetic intensity even more
		SmallMapPixels:        64,    // and tiny feature maps even more than CPUs
	}
}

// CloudServer returns the cloud profile (2× Intel Xeon E5-2630 with a
// GTX 1080 Ti): roughly 30× the phone's throughput with a small dispatch
// overhead, so cloud compute is nearly negligible for CIFAR-scale models.
func CloudServer() Device {
	return Device{
		Name: "XeonGTX1080Ti",
		ConvCoeffNS: map[int]float64{
			1: 0.009,
			3: 0.010,
			5: 0.011,
		},
		DefaultConvCoeffNS:    0.011,
		FCCoeffNS:             0.008,
		LayerOverheadNS:       60e3, // 60 µs dispatch per layer
		DepthwiseInefficiency: 4.0,
		SmallMapPixels:        64,
	}
}
