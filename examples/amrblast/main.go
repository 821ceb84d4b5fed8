// amrblast runs a cylindrical blast wave with the adaptive-mesh-
// refinement extension: the refinement tracks the expanding shock front,
// and an ASCII map shows which regions carry fine blocks. It closes with
// a timed comparison against the equivalent uniform fine grid.
package main

import (
	"fmt"
	"log"

	"spp1000/internal/apps/amr"
)

func main() {
	d, err := amr.New(4, 4)
	if err != nil {
		log.Fatal(err)
	}
	w := float64(4 * amr.BlockSize)
	d.SetRegion(func(x, y float64) (rho, u, v, p float64) {
		dx, dy := x-w/2, y-w/2
		if dx*dx+dy*dy < 36 {
			return 1, 0, 0, 20 // hot center
		}
		return 1, 0, 0, 0.5
	})

	for s := 0; s < 16; s++ {
		d.Step()
	}
	total, leaves := d.Blocks()
	fmt.Printf("blast after 16 steps: %d leaf blocks (of %d tree nodes), max level %d\n\n",
		leaves, total, d.MaxLevel())

	// Refinement map: the level of the covering leaf, sampled on a
	// coarse raster.
	fmt.Println("refinement map (digit = level of covering leaf):")
	for j := 0; j < 32; j++ {
		for i := 0; i < 32; i++ {
			x := (float64(i) + 0.5) * w / 32
			y := (float64(j) + 0.5) * w / 32
			fmt.Printf("%d", d.LevelAt(x, y))
		}
		fmt.Println()
	}

	// Timed comparison on the simulated machine.
	d2, _ := amr.New(4, 4)
	d2.SetRegion(func(x, y float64) (rho, u, v, p float64) {
		dx, dy := x-w/2, y-w/2
		if dx*dx+dy*dy < 36 {
			return 1, 0, 0, 20
		}
		return 1, 0, 0, 0.5
	})
	r, err := amr.Run(nil, d2, 8, 12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n8-CPU timed run: %v\n", r)
}
