package main

// The exact sim totals and PMU counts of each workload's probe pass, as
// produced at the benchmark's commit: sim.* from the in-process run of
// the pass's experiments, the rest from `sppbench -counters` over the
// same experiments. The traced run compares every count against these;
// any difference is a determinism failure.

// paper-sim: fig2,fig3,fig4,tab1,fig6,fig7,tab2 at paper scale.
var paperSimCounts = map[string]int64{
	"sim.events":               107395,
	"sim.cycles":               135963183177,
	"mem.accesses":             12156,
	"mem.local_misses":         2872,
	"mem.hypernode_misses":     7114,
	"mem.global_misses":        345,
	"directory.invalidations":  10228,
	"directory.lookups":        10774,
	"sci.purges":               593,
	"ring.packets":             10427,
	"xbar.grants":              15004,
	"threads.barrier_episodes": 1664,
}

// nbody-2m: fig8 at paper scale.
var nbody2MCounts = map[string]int64{
	"sim.events":               9300,
	"sim.cycles":               2311791579445,
	"mem.accesses":             1620,
	"mem.local_misses":         454,
	"mem.hypernode_misses":     794,
	"mem.global_misses":        108,
	"directory.invalidations":  1332,
	"directory.lookups":        1457,
	"sci.purges":               144,
	"ring.packets":             1428,
	"xbar.grants":              1698,
	"threads.barrier_episodes": 288,
}

// service-mix: its cold specs, fig2,fig3,fig4 at quick scale.
var serviceMixCounts = map[string]int64{
	"sim.events":               5260,
	"sim.cycles":               2693752,
	"mem.accesses":             540,
	"mem.local_misses":         173,
	"mem.hypernode_misses":     307,
	"mem.global_misses":        30,
	"directory.invalidations":  480,
	"directory.lookups":        513,
	"sci.purges":               46,
	"ring.packets":             530,
	"xbar.grants":              653,
	"threads.barrier_episodes": 60,
}
