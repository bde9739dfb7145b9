package nn

import (
	"fmt"
	"strings"
)

// Summary renders a human-readable per-layer table of the model: types,
// hyper-parameters, output shapes, MACCs and parameters — the torchsummary
// view the examples and tools print.
func (m *Model) Summary() (string, error) {
	c, err := m.Costs()
	if err != nil {
		return "", err
	}
	params, err := m.ParamsPerLayer()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (input %s, %d classes)\n", m.Name, m.Input, m.Classes)
	fmt.Fprintf(&b, "%-4s %-24s %-12s %12s %12s\n", "#", "layer", "output", "MACCs", "params")
	var totalMACCs, totalParams int64
	for i, l := range m.Layers {
		fmt.Fprintf(&b, "%-4d %-24s %-12s %12d %12d\n",
			i, l.String(), c.Dims(i).Out.String(), c.MACCs(i), params[i])
		totalMACCs += c.MACCs(i)
		totalParams += params[i]
	}
	bytes, err := m.ParamBytes()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "%-4s %-24s %-12s %12d %12d\n", "", "total", "", totalMACCs, totalParams)
	fmt.Fprintf(&b, "storage: %.2f MB\n", float64(bytes)/1e6)
	return b.String(), nil
}
