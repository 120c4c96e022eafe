package emulator

// Timing model reference (the full rationale lives in DESIGN.md).
//
// Time base: integer picoseconds. Every element acts on edges of its
// own clock domain (segments and the CA each have one).
//
// Per package of a flow (Pt, D, T, C):
//
//	compute   C ticks on the hosting segment's clock; when the model
//	          declares a nominal package size, scaled by the package's
//	          actual item count (work belongs to the data, not to the
//	          packaging).
//	transfer  HeaderTicks + items ticks of bus occupancy per hop.
//
// Intra-segment: request -> SA grant -> one bus transaction -> local
// delivery.
//
// Inter-segment (circuit-switched, section 2.1 of the paper): the SA
// forwards the request to the CA, which charges CAHopTicks per hop for
// chain set-up; the master fills the first border unit's
// direction-specific depth-one buffer and its segment is released in
// cascade; each hop then forwards over the next segment's bus after
// that SA's grant (waiting periods are accounted to the BU); the
// initiating master is released by the final delivery.
//
// Schedule (package sched owns both rules): flows run stage by stage
// in T order; all flows of the minimal uncompleted order may run
// concurrently; within a process, the k-th package it emits on an
// order (k counted across all of its flows of that order) waits for
// its earlier-order input packages plus ceil(k·is/os), where is and
// os are the packages it receives and emits on that order.
//
// Monitoring (section 4 accounting): each SA's TCT counts clock ticks
// from emulation start to its last bus activity; the CA's counts to
// the global end plus the monitor's detection latency; BU TCT = load +
// waiting + unload ticks. Total execution time = max over arbiters of
// TCT x clock period.
//
// The estimation model charges none of the SA grant, clock-domain
// synchronisation or CA set/reset costs (the paper's emulator skips
// them); Config.Overheads re-enables them for the refined ground-truth
// model (package realplat).
