package nbody

import "testing"

// BenchmarkCountWorkload times the host-side numerics behind one Fig. 8
// problem size: Plummer sampling, Morton sort, tree build and the
// sampled force walks, at 256K particles with the paper-scale sample
// of 96 particles per microblock. No simulator code runs here, so this
// line item moves only with the n-body numerics.
func BenchmarkCountWorkload(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CountWorkload(262144, 96, 1)
	}
}
