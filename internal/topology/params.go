package topology

// Params collects the timing parameters of the simulated machine, in CPU
// cycles (100 MHz → 10 ns each) unless noted. Defaults come from the
// paper: §2.2 (processor), §2.6 (memory latencies), §4 (measured costs of
// the runtime primitives, used to calibrate the software-path constants
// that the paper does not decompose further), and §6 (the ~8× global miss
// ratio).
type Params struct {
	// --- processor ---

	// FlopsPerCycle is the peak floating-point issue rate of one PA-7100
	// (one FLOP per cycle at 100 MHz; divides are handled separately by
	// application cost profiles).
	FlopsPerCycle float64

	// --- memory hierarchy (cycles) ---

	CacheHit         int64 // data cache hit (one access per cycle, §2.6)
	LocalMiss        int64 // miss served by the FU's own memory
	HypernodeMiss    int64 // miss served via the crossbar (other FU or global buffer hit)
	CrossbarTransit  int64 // one crossbar traversal (included in HypernodeMiss; used for extra legs)
	MemoryBankBusy   int64 // bank occupancy per line transfer (contention)
	RingHop          int64 // one SCI ring hop, one direction
	RingPacketFixed  int64 // fixed SCI packet handling at each endpoint
	RemoteDirLookup  int64 // SCI directory/tag lookup at the remote hypernode
	GlobalBufferFill int64 // installing a fetched line in the local global-cache buffer
	UncachedAccess   int64 // read-modify-write on an uncached semaphore cell

	// --- coherence ---

	DirLookup         int64 // intra-hypernode directory tag check
	InvalPerCopy      int64 // invalidating one local cached copy
	SCIListVisit      int64 // walking one node of an SCI sharing list (plus ring hops)
	SpinRefetch       int64 // a spinning CPU observing its line invalid and refetching (excl. memory latency)
	SpinReleaseSerial int64 // serialized line re-supply to one released spinner (barrier fan-out)
	WriteBack         int64 // writing back a dirty line

	// --- thread runtime (CPSlib), cycles ---

	ThreadSpawnLocal  int64 // parent-side cost to create/dispatch one thread on the local hypernode
	ThreadSpawnRemote int64 // ... on a remote hypernode (cross-kernel dispatch)
	RemoteRuntimeInit int64 // one-time cost when a fork first touches a second hypernode (§4.1: ~50 µs)
	ThreadStart       int64 // child-side cost from dispatch to first user instruction
	JoinPerThread     int64 // parent-side cost to reap one finished thread
	BarrierEnter      int64 // bookkeeping before the semaphore decrement

	// --- PVM (cycles) ---

	PVMPackPerByte  float64 // packing into the shared buffer
	PVMSendFixed    int64   // fixed send-side library cost
	PVMRecvFixed    int64   // fixed receive-side library cost
	PVMCopyPerByte  float64 // copy from shared buffer at receiver (local)
	PVMPagePenalty  int64   // extra per-page cost beyond 2 pages (page management, §4.3 knee)
	PVMDaemonWakeup int64   // daemon involvement for inter-hypernode rendezvous

	// --- OS noise ---

	// OSIntrusion models the multitasking OS sharing CPUs with the
	// application (paper §6): when an application requests every CPU of
	// the machine, OS work steals cycles from one CPU, stretching that
	// CPU's compute time by the given fraction.
	OSIntrusion float64
}

// DefaultParams returns the calibrated SPP-1000 parameter set.
func DefaultParams() Params {
	return Params{
		FlopsPerCycle: 1.0,

		CacheHit:         1,
		LocalMiss:        50,
		HypernodeMiss:    55,
		CrossbarTransit:  6,
		MemoryBankBusy:   20,
		RingHop:          40,
		RingPacketFixed:  70,
		RemoteDirLookup:  90,
		GlobalBufferFill: 60,
		UncachedAccess:   60,

		DirLookup:         10,
		InvalPerCopy:      20,
		SCIListVisit:      60,
		SpinRefetch:       120,
		SpinReleaseSerial: 200, // Fig. 3: ≈2 µs per released thread
		WriteBack:         40,

		ThreadSpawnLocal:  420,  // ≈4.2 µs; Fig. 2: ~10 µs per extra local pair
		ThreadSpawnRemote: 1500, // ≈15 µs; Fig. 2: ~20 µs per uniform pair
		RemoteRuntimeInit: 5000, // 50 µs step at the hypernode boundary
		ThreadStart:       150,
		JoinPerThread:     80,
		BarrierEnter:      150,

		PVMPackPerByte:  0.010,
		PVMSendFixed:    700, // 7 µs; round trip local ≈ 30 µs below 8 KB
		PVMRecvFixed:    650,
		PVMCopyPerByte:  0.012,
		PVMPagePenalty:  1500, // per page beyond two pages: >8 KB degradation
		PVMDaemonWakeup: 2000, // inter-hypernode rendezvous: global RT ≈ 70 µs (§4.3)

		OSIntrusion: 0.04,
	}
}

// GlobalMissCycles reports the modeled end-to-end latency of a clean
// global (remote hypernode) miss with the given hop count, as the sum of
// the path legs: crossbar to the ring FU, request hops, remote directory
// and memory, return hops, and global-buffer install. With the default
// parameters and the mean hop count of a 2-hypernode machine this is
// ≈8× HypernodeMiss, matching §6.
func (p Params) GlobalMissCycles(hops int) int64 {
	return p.CrossbarTransit + // to the ring interface FU
		2*p.RingPacketFixed + // inject + eject
		int64(2*hops)*p.RingHop + // request + response traversal
		p.RemoteDirLookup +
		p.LocalMiss + // remote memory fetch
		p.GlobalBufferFill +
		p.CrossbarTransit // back to the requesting CPU
}
