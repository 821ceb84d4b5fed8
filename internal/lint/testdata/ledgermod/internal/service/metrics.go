// Package service is the ledger fixture's daemon-side emitter.
package service

import (
	"fmt"
	"io"
)

// writeMetrics renders the daemon counters in `name value` lines.
//
//simlint:metrics-writer
func writeMetrics(w io.Writer, done, orphan, shadow int64) {
	fmt.Fprintf(w, "sppd_%s %d\n", "jobs_done_total", done)
	fmt.Fprintf(w, "sppd_%s %d\n", "orphan_counter_total", orphan) // want "metric orphan_counter_total is emitted but absent from the reconcile surface"
	fmt.Fprintf(w, "sppd_%s %d\n", "undocumented_total", shadow)   // want "metric undocumented_total is emitted but not mentioned in docs"
}
