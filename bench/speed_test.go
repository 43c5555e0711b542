package bench

import "testing"

// TestSpeedFactor checks the direction of the scaling and that one slow
// kernel run does not move it: a host on which the kernel takes twice
// refNominal makes times twice as long, so they are halved.
func TestSpeedFactor(t *testing.T) {
	nom := float64(refNominal)
	if f := speedFactor([]float64{2 * nom, 2 * nom, 100 * nom}); f != 0.5 {
		t.Errorf("kernel at twice nominal: factor %v, want 0.5", f)
	}
	if f := speedFactor(nil); f != 1 {
		t.Errorf("no kernel times: factor %v, want 1", f)
	}
	if d := refKernel(); d <= 0 {
		t.Errorf("refKernel took %v", d)
	}
}
