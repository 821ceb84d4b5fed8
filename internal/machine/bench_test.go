package machine_test

import (
	"fmt"
	"testing"

	"spp1000/internal/machine"
)

var sink *machine.Machine

// BenchmarkMachineNew measures building a machine at paper geometry —
// the per-sweep-point construction cost (kernel, topology, memory
// system with eight 1 MB-geometry caches per hypernode).
func BenchmarkMachineNew(b *testing.B) {
	for _, hn := range []int{1, 2} {
		b.Run(fmt.Sprintf("hn=%d", hn), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := machine.New(machine.Config{Hypernodes: hn})
				if err != nil {
					b.Fatal(err)
				}
				sink = m
			}
		})
	}
}
