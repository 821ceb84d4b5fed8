// ppmshock runs a Sod shock tube with the PPM hydrodynamics kernel on a
// tiled domain, prints the density profile, checks the tiled evolution
// against the single-grid one, and reproduces a Table 2 row.
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"spp1000/internal/apps/ppm"
)

func main() {
	const w, h = 128, 16
	d, err := ppm.NewTiled(w, h, 4, 2, ppm.Outflow)
	if err != nil {
		log.Fatal(err)
	}
	g, err := ppm.NewGrid(w, h)
	if err != nil {
		log.Fatal(err)
	}
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			if i < w/2 {
				d.Set(i, j, 1.0, 0, 0, 1.0)
				g.Set(i, j, 1.0, 0, 0, 1.0)
			} else {
				d.Set(i, j, 0.125, 0, 0, 0.1)
				g.Set(i, j, 0.125, 0, 0, 0.1)
			}
		}
	}
	pc := ppm.NewPencil(w + 2*ppm.Pad + h)
	for s := 0; s < 40; s++ {
		d.Step()
		g.Step(ppm.Outflow, 0.4, pc)
	}

	// ASCII density profile along the midline.
	fmt.Println("Sod shock tube density after 40 steps (tiled PPM):")
	var maxDiff float64
	for i := 0; i < w; i += 2 {
		rho, _, _, _ := d.At(i, h/2)
		rg, _, _, _ := g.At(i, h/2)
		if diff := math.Abs(rho - rg); diff > maxDiff {
			maxDiff = diff
		}
		bars := int(rho * 50)
		fmt.Printf("x=%3d rho=%.3f |%s\n", i, rho, strings.Repeat("#", bars))
	}
	fmt.Printf("\nmax |tiled - global| midline density: %.2e\n", maxDiff)
	fmt.Printf("ghost bytes exchanged: %d\n\n", d.ExchangedBytes)

	// One Table 2 configuration on the simulated machine.
	r, err := ppm.Run(nil, ppm.Table2A, 8, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Table 2 row: %v -> %.1f Mflop/s (paper: 228.5)\n", r.Config, r.Mflops)
}
