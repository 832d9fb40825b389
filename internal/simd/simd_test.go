package simd

import (
	"runtime"
	"testing"
)

// TestAVX2StableAndArchGated: the probe answers the same on every call, and
// only amd64 can answer yes.
func TestAVX2StableAndArchGated(t *testing.T) {
	first := AVX2()
	for i := 0; i < 3; i++ {
		if AVX2() != first {
			t.Fatal("AVX2 changed between calls")
		}
	}
	if runtime.GOARCH != "amd64" && first {
		t.Fatalf("AVX2 reported on %s", runtime.GOARCH)
	}
	t.Logf("GOARCH=%s AVX2=%v", runtime.GOARCH, first)
}
