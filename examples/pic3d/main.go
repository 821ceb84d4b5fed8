// pic3d runs the paper's beam-plasma PIC problem at reduced size with
// real physics (charge deposition, FFT field solve, leapfrog push),
// prints energy diagnostics over time, then times the same computation
// at paper scale on the simulated SPP-1000 in both programming models.
package main

import (
	"fmt"
	"log"

	"spp1000/internal/apps/pic"
)

func main() {
	// --- Real physics at reduced size: the two-stream/beam-plasma
	// system converts beam kinetic energy into field energy. ---
	sim, err := pic.New(pic.Size{NX: 16, NY: 16, NZ: 16}, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("beam-plasma PIC: %v mesh, %d particles (%d beam)\n",
		sim.Size, len(sim.X), sim.NBeam)
	fmt.Printf("%6s %14s %14s\n", "step", "kinetic", "field")
	for step := 0; step <= 40; step++ {
		if step%8 == 0 {
			fmt.Printf("%6d %14.2f %14.6f\n", step, sim.KineticEnergy(), sim.FieldEnergy())
		}
		if err := sim.Step(); err != nil {
			log.Fatal(err)
		}
	}

	// --- Paper-scale timing on the simulated machine (Fig. 6). ---
	fmt.Println("\nSPP-1000 timing, small problem (32x32x32, 294912 particles):")
	for _, p := range []int{1, 8, 16} {
		shared, err := pic.RunShared(nil, pic.Small, p, 10)
		if err != nil {
			log.Fatal(err)
		}
		pvmr, err := pic.RunPVM(nil, pic.Small, p, 10)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d CPUs: shared %7.1f Mflop/s | PVM %7.1f Mflop/s\n",
			p, shared.Mflops, pvmr.Mflops)
	}
	sec, rate := pic.C90Reference(pic.Small, 500)
	fmt.Printf("  C90 reference: %.0f Mflop/s (%.0f s for 500 steps)\n", rate, sec)
}
