package emulator

import (
	"fmt"
	"time"

	"segbus/internal/engine"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// Run emulates application model m on platform plat and returns the
// monitoring report: RunPair on the pair's admission checks.
//
// Run constructs a fresh machine per call. Callers that emulate
// repeatedly should hold a reusable Machine instead — same code path,
// but the arena storage survives between runs.
func Run(m *psdf.Model, plat *platform.Platform, cfg Config) (*Report, error) {
	return NewMachine().Run(m, plat, cfg)
}

// Machine is a reusable emulation arena. A Machine owns the flat
// element-state arrays and the event kernel of one emulation instance;
// running a model primes those arrays in place, so a warm Machine
// emulates without rebuilding per-element storage. The zero value is
// not usable; construct with NewMachine.
//
// A Machine is not safe for concurrent use: one emulation at a time.
// Reuse across runs is exact — a report produced by a warm Machine is
// byte-identical to one produced by a fresh machine for the same
// inputs (pinned by the conform `pooled` oracle and the reuse
// differential battery).
type Machine struct {
	mc machine
}

// NewMachine returns an empty machine arena. The first Run sizes the
// arrays to the model and platform; later runs reuse that storage,
// growing only when a larger shape arrives.
func NewMachine() *Machine {
	return &Machine{mc: machine{sim: engine.NewSim()}}
}

// Run emulates application model m on platform plat on this
// machine's arena: RunPair on the pair's admission checks.
func (x *Machine) Run(m *psdf.Model, plat *platform.Platform, cfg Config) (*Report, error) {
	return x.RunPair(sched.NewPair(m, plat), cfg)
}

// RunPair emulates the pair on this machine's arena and returns the
// monitoring report; a bad configuration, then the pair's first failed
// admission check, aborts the run. RunPair re-primes the machine from
// scratch, so it is total even after a previous run failed or was
// abandoned mid-flight.
func (x *Machine) RunPair(p *sched.Pair, cfg Config) (*Report, error) {
	if err := ValidateConfig(cfg); err != nil {
		return nil, err
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	sch, err := p.Schedule()
	if err != nil {
		return nil, err
	}
	if err := x.mc.prime(p.Platform, sch, p.Model.NominalPackageSize(), cfg); err != nil {
		return nil, err
	}
	return x.mc.run()
}

// Reset returns the machine to its post-prime state — queues empty,
// counters zero, the event kernel at time zero — without touching the
// arena storage: once warm it performs no allocations (pinned by
// TestMachineResetAllocs). Reset is total: it restores a machine whose
// last run failed, deadlocked or was abandoned mid-flight just as well
// as one that completed. Resetting a machine that never ran is a
// no-op.
//
// Reset is not required before Run — priming subsumes it — but pools
// reset machines on check-in so a dirty run can never leak state into
// the next checkout.
func (x *Machine) Reset() { x.mc.reset() }

// ValidateConfig rejects configurations the machine cannot honour:
// negative tick counts, tick counts above MaxTicks and unknown
// arbitration policies. Run applies it first; a service applies it
// before it spends anything on a request.
func ValidateConfig(cfg Config) error {
	o := cfg.Overheads
	if o.GrantTicks < 0 || o.SyncTicks < 0 || o.CASetTicks < 0 || o.CAResetTicks < 0 {
		return fmt.Errorf("emulator: negative overhead ticks in %+v", o)
	}
	if o.GrantTicks > MaxTicks || o.SyncTicks > MaxTicks || o.CASetTicks > MaxTicks || o.CAResetTicks > MaxTicks {
		return fmt.Errorf("emulator: overhead ticks in %+v exceed the limit of %d", o, MaxTicks)
	}
	if cfg.DetectTicks < 0 {
		return fmt.Errorf("emulator: negative detect ticks %d", cfg.DetectTicks)
	}
	if cfg.DetectTicks > MaxTicks {
		return fmt.Errorf("emulator: detect ticks %d exceed the limit of %d", cfg.DetectTicks, MaxTicks)
	}
	switch cfg.Policy {
	case PolicyBUFirst, PolicyFIFO, PolicyFixedPriority:
	default:
		return fmt.Errorf("emulator: unknown arbitration policy %d", int(cfg.Policy))
	}
	return nil
}

// emitEntry is one package emission of a functional unit.
type emitEntry struct {
	flow sched.FlowID
	pkg  int // 1-based package index within the flow
}

// Element state lives in parallel flat slices — static configuration
// and dynamic run state — rather than one heap node per element. The
// split keeps the per-run mutable state contiguous and trivially
// zeroable (reset is a memclr sweep, not a pointer chase). Events are
// typed (kind, element index) pairs, never closures: the kernel queues
// them, bus requests and buffer waiters hold them, and Fire switches
// on the kind, so the arrays may be reallocated on growth without
// invalidating anything that refers to an element.

// Event kinds. FU kinds index an FU slot, buffer kinds a border-unit
// buffer slot and evPump a segment (0-based).
const (
	evComputeDone engine.Kind = iota // FU: compute finished, raise the bus request
	evIntraGrant                     // FU: intra-segment transfer granted
	evIntraEnd                       // FU: intra-segment transfer completed
	evFillAttempt                    // FU: first-hop buffer free, reserve it and request the fill
	evFillGrant                      // FU: first-hop fill granted
	evFillEnd                        // FU: first-hop fill completed
	evPump                           // segment: the SA's arbitration step
	evBufFull                        // buffer: loaded, arrange the next hop
	evForward                        // buffer: forward buffer free, reserve it and queue the unload
	evUnloadGrant                    // buffer: unload granted on the next segment
	evUnloadEnd                      // buffer: unload completed
)

// event returns the typed event of kind k on element i.
func event(k engine.Kind, i int) engine.Event {
	return engine.Event{Kind: k, Index: int32(i)}
}

// fuStatic is the per-prime configuration of one functional unit (one
// hosted process). flows keeps its capacity across primes.
type fuStatic struct {
	proc  psdf.ProcessID
	seg   int            // hosting segment, 1-based
	flows []sched.FlowID // flows the process emits packages on, canonical order
}

// fuDyn is the per-run mutable state of one functional unit. The zero
// value is the post-prime state.
type fuDyn struct {
	nextFlow int // index into fuStatic.flows of the next emission
	nextPkg  int // packages of that flow already claimed (when compute starts)
	received int
	sent     int
	busy     bool
	started  bool
	gotRecv  bool
	startPs  engine.Time
	endPs    engine.Time
	lastRecv engine.Time

	// In-flight emission context. An FU has at most one emission in
	// flight (busy gates advanceFU until deliver), so its events carry
	// only the FU index and read these fields at fire time. Both are
	// only read between advanceFU (pending) or requestTransfer
	// (xferBuf) setting them and the transfer completing, so stale
	// values after a reset are never observed.
	pending emitEntry
	xferBuf int // reserved first-hop buffer index (inter-segment only)
}

// flowPlan is the per-prime plan of one flow: the FU slots of its
// source and target (tgt is -1 for SystemOutput), the segment its
// packages are delivered on, the CA chain hops between the source's
// segment and that one, and its package costs. Every package but the
// last carries s items and costs the same, so the per-package path
// picks one of two precomputed (ticks, items) pairs instead of
// dividing.
type flowPlan struct {
	src, tgt  int
	dst, hops int
	packages  int
	fullTicks int64 // processing ticks of a full package
	lastTicks int64 // processing ticks of the last package
	fullItems int   // items of a full package (s)
	lastItems int   // items of the last, possibly partial, package
}

// ticks returns the processing ticks of package pkg (1-based).
func (p *flowPlan) ticks(pkg int) int64 {
	if pkg == p.packages {
		return p.lastTicks
	}
	return p.fullTicks
}

// items returns the data items package pkg (1-based) carries.
func (p *flowPlan) items(pkg int) int {
	if pkg == p.packages {
		return p.lastItems
	}
	return p.fullItems
}

// busReq is one pending request for a segment bus. Requests are queued
// by value — the per-segment queues keep their backing arrays across
// runs, so steady-state arbitration allocates nothing.
type busReq struct {
	at   engine.Time // earliest time the request may be granted
	prio int         // 0: border-unit unload, 1: master
	id   int         // requester identity for deterministic tie-breaks
	seq  uint64
	ev   engine.Event // fired when the request is granted
}

// reqLess orders two eligible requests under the configured policy.
func reqLess(policy Policy, a, b *busReq) bool {
	switch policy {
	case PolicyFIFO:
		if a.at != b.at {
			return a.at < b.at
		}
		if a.prio != b.prio {
			return a.prio < b.prio
		}
	case PolicyFixedPriority:
		if a.prio != b.prio {
			return a.prio < b.prio
		}
		if a.id != b.id {
			return a.id < b.id
		}
		if a.at != b.at {
			return a.at < b.at
		}
	default: // PolicyBUFirst
		if a.prio != b.prio {
			return a.prio < b.prio
		}
		if a.at != b.at {
			return a.at < b.at
		}
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.seq < b.seq
}

// segStatic is the per-prime configuration of one segment.
type segStatic struct {
	index int // 1-based segment id, as in the paper
	clock engine.Clock
}

// segDyn is the per-run state of one segment: its bus occupancy and
// its arbiter's counters. The zero value is the post-prime state.
type segDyn struct {
	busyUntil engine.Time
	intraReq  int
	interReq  int
	toLeft    int
	toRight   int
	lastBusy  engine.Time
}

// transitPkg is a package sitting in a border-unit buffer.
type transitPkg struct {
	flow   sched.FlowID
	pkg    int
	items  int // data items carried (the last package of a flow may be partial)
	srcSeg int
	dstSeg int
	fullAt engine.Time // loaded (incl. sync overhead); waiting starts here
}

// bufStatic is the per-prime route configuration of one border-unit
// buffer direction: the segment it unloads onto, the next buffer of
// the chain in its direction (-1 at the chain's end) and the
// deterministic requester identity.
type bufStatic struct {
	bu        platform.BU
	rightward bool
	nextSeg   int
	next      int
	id        int
}

// bufDyn is the per-run state of one border-unit buffer direction: a
// depth-one FIFO. The zero value is the post-prime state. forward and
// dataStartPs are in-flight package context for the buffer's events —
// the forward buffer chosen for the current package (-1: deliver onto
// nextSeg) and the unload data-phase start, recorded at grant time for
// the forward-load trace interval; depth-one buffering makes both
// stable from load to unload completion, and both are set before they
// are read.
type bufDyn struct {
	occupied    bool
	reserved    bool
	pkg         transitPkg
	forward     int
	dataStartPs engine.Time
}

// buStats collects the monitoring counters of one border unit (both
// directions).
type buStats struct {
	bu            platform.BU
	in, out       int
	recvFromLeft  int
	sentToLeft    int
	recvFromRight int
	sentToRight   int
	loadTicks     int64
	unloadTicks   int64
	waitTicks     int64
}

// machine is one emulation arena. Every slice below is either per-prime
// configuration sized by prime or per-run state zeroed by reset.
type machine struct {
	cfg    Config
	plat   *platform.Platform
	sch    *sched.Schedule
	sim    *engine.Sim
	s      int   // package size
	header int64 // per-package protocol ticks

	caClock engine.Clock

	fuStat []fuStatic
	fuDyn  []fuDyn

	plan []flowPlan // indexed by sched.FlowID

	segStat []segStatic // index 0 = segment 1
	segDyn  []segDyn
	segReq  [][]busReq // per-segment pending requests

	// Border-unit buffers, two directions per unit, indexed
	// (BU.Left-1)*2 for rightward and (BU.Left-1)*2+1 for leftward.
	bufStat []bufStatic
	bufDyn  []bufDyn
	bufWait [][]engine.Event // per-buffer waiters, fired when it frees

	busSt []buStats // index 0 = BU.Left 1

	stage      int
	stageLeft  []int
	stageStart []engine.Time
	stageEnd   []engine.Time

	caBusyUntil engine.Time
	caRequests  int
	reqSeq      uint64
	endPs       engine.Time

	met machineMetrics
}

// sortFUs orders the FU slots by process id (insertion sort: FU counts
// are small, process ids unique, and unlike sort.Slice it does not
// allocate on the prime path).
func sortFUs(s []fuStatic) {
	for i := 1; i < len(s); i++ {
		e := s[i]
		j := i - 1
		for j >= 0 && s[j].proc > e.proc {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = e
	}
}

// fuSlot returns the FU slot hosting proc, searching the slots sorted
// by sortFUs; ok is false when no FU hosts it.
func fuSlot(s []fuStatic, proc psdf.ProcessID) (i int, ok bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m].proc < proc {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s) && s[lo].proc == proc
}

// grown extends s to length n, reusing its backing array and
// allocating only when the capacity is exceeded. Elements carried over
// from a previous prime are NOT cleared — callers overwrite or zero
// the active prefix themselves.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// bufIndex returns the arena slot of the given border-unit buffer
// direction.
func bufIndex(left int, rightward bool) int {
	i := (left - 1) * 2
	if !rightward {
		i++
	}
	return i
}

// buRequesterID gives border-unit buffers a deterministic requester
// identity disjoint from process ids (which are non-negative).
func buRequesterID(left int, rightward bool) int {
	id := -(left*2 + 1)
	if rightward {
		id--
	}
	return id
}

// prime configures the machine for one (model, platform, config)
// triple: the event kernel is reset, the element arrays are sized and
// their static configuration rebuilt, the per-run state zeroed and the
// emitted flows assigned to their FUs. A warm machine re-primes without
// allocating except where the new shape outgrows the arena. prime is
// total over dirty machines — it never reads run state left by a
// previous (possibly failed) run.
func (mc *machine) prime(plat *platform.Platform, sch *sched.Schedule, nominal int, cfg Config) error {
	if cfg.DetectTicks == 0 {
		cfg.DetectTicks = DefaultDetectTicks
	}
	mc.cfg = cfg
	mc.plat = plat
	mc.sch = sch
	mc.s = plat.PackageSize
	mc.header = int64(plat.HeaderTicks)
	mc.caClock = engine.NewClock(plat.CAClock.PeriodPs())

	mc.sim.Reset()
	limit := cfg.StepLimit
	if limit == 0 {
		limit = 1000 + 64*uint64(sch.TotalPackages()+sch.NumFlows())*uint64(plat.NumSegments()+1)
	}
	mc.sim.SetStepLimit(limit)
	mc.met.init(cfg.Metrics, plat, cfg.Policy)
	mc.sim.SetEventCounter(mc.met.events)

	// Segments.
	nSeg := plat.NumSegments()
	mc.segStat = grown(mc.segStat, nSeg)
	mc.segDyn = grown(mc.segDyn, nSeg)
	mc.segReq = grown(mc.segReq, nSeg)
	for i, seg := range plat.Segments {
		mc.segStat[i] = segStatic{index: seg.Index, clock: engine.NewClock(seg.Clock.PeriodPs())}
		mc.segDyn[i] = segDyn{}
		mc.segReq[i] = mc.segReq[i][:0]
	}

	// Border units: stats per unit, one buffer slot per direction.
	bus := plat.BUs()
	nBuf := 2 * len(bus)
	mc.busSt = grown(mc.busSt, len(bus))
	mc.bufStat = grown(mc.bufStat, nBuf)
	mc.bufDyn = grown(mc.bufDyn, nBuf)
	mc.bufWait = grown(mc.bufWait, nBuf)
	for i, bu := range bus {
		mc.busSt[i] = buStats{bu: bu}
		for _, rightward := range [2]bool{true, false} {
			b := bufIndex(bu.Left, rightward)
			next := -1
			nextSeg := bu.Left
			if rightward {
				nextSeg = bu.Right
				if bu.Left+1 <= len(bus) {
					next = bufIndex(bu.Left+1, true)
				}
			} else if bu.Left-1 >= 1 {
				next = bufIndex(bu.Left-1, false)
			}
			mc.bufStat[b] = bufStatic{
				bu: bu, rightward: rightward,
				nextSeg: nextSeg, next: next,
				id: buRequesterID(bu.Left, rightward),
			}
			mc.bufDyn[b] = bufDyn{forward: -1}
			mc.bufWait[b] = mc.bufWait[b][:0]
		}
	}

	// One FU per hosted process, sorted by process id.
	nFU := 0
	for _, seg := range plat.Segments {
		nFU += len(seg.FUs)
	}
	mc.fuStat = grown(mc.fuStat, nFU)
	mc.fuDyn = grown(mc.fuDyn, nFU)
	i := 0
	for _, seg := range plat.Segments {
		for _, pfu := range seg.FUs {
			st := &mc.fuStat[i]
			st.proc = pfu.Process
			st.seg = seg.Index
			st.flows = st.flows[:0]
			mc.fuDyn[i] = fuDyn{}
			i++
		}
	}
	sortFUs(mc.fuStat)

	// Plan every flow once, so the per-package paths index a table
	// instead of searching the platform or dividing. Each FU emits its
	// flows' packages in canonical flow order; the schedule's per-order
	// gate interleaves same-order pipelines.
	mc.plan = grown(mc.plan, sch.NumFlows())
	for i, f := range sch.Flows() {
		src, ok := fuSlot(mc.fuStat, f.Source)
		if !ok {
			return fmt.Errorf("emulator: flow %v source not hosted", f)
		}
		r := flowPlan{src: src, tgt: -1, dst: mc.fuStat[src].seg, packages: sch.Packages(sched.FlowID(i))}
		if f.Target != psdf.SystemOutput {
			if r.tgt, ok = fuSlot(mc.fuStat, f.Target); !ok {
				return fmt.Errorf("emulator: flow %v target not hosted", f)
			}
			r.dst = mc.fuStat[r.tgt].seg
		}
		r.hops = plat.Hops(mc.fuStat[src].seg, r.dst)
		if pk := r.packages; pk > 0 {
			r.fullTicks, r.fullItems = f.PackageTicks(mc.s, nominal, 1), f.PackageItems(mc.s, 1)
			r.lastTicks, r.lastItems = f.PackageTicks(mc.s, nominal, pk), f.PackageItems(mc.s, pk)
			mc.fuStat[src].flows = append(mc.fuStat[src].flows, sched.FlowID(i))
		}
		mc.plan[i] = r
	}

	// Stage accounting.
	ns := sch.NumStages()
	mc.stageLeft = grown(mc.stageLeft, ns)
	mc.stageStart = grown(mc.stageStart, ns)
	mc.stageEnd = grown(mc.stageEnd, ns)
	mc.resetStages()

	mc.stage = 0
	mc.caBusyUntil = 0
	mc.caRequests = 0
	mc.reqSeq = 0
	mc.endPs = 0
	return nil
}

// reset returns a primed machine to its post-prime state without
// touching the arena's static configuration: per-run state is zeroed,
// queues and waiter lists truncated, the kernel rewound to time zero.
// Zero allocations once warm. A machine that was never primed has
// nothing to reset.
func (mc *machine) reset() {
	if mc.sch == nil {
		return
	}
	mc.sim.Reset()
	for i := range mc.fuDyn {
		mc.fuDyn[i] = fuDyn{}
	}
	for i := range mc.segDyn {
		mc.segDyn[i] = segDyn{}
		mc.segReq[i] = mc.segReq[i][:0]
	}
	for i := range mc.bufDyn {
		mc.bufDyn[i] = bufDyn{forward: -1}
		mc.bufWait[i] = mc.bufWait[i][:0]
	}
	for i := range mc.busSt {
		mc.busSt[i] = buStats{bu: mc.busSt[i].bu}
	}
	mc.resetStages()
	mc.stage = 0
	mc.caBusyUntil = 0
	mc.caRequests = 0
	mc.reqSeq = 0
	mc.endPs = 0
}

// resetStages re-arms the stage accounting: every stage owes all of
// its packages and has neither started nor ended.
func (mc *machine) resetStages() {
	for si := range mc.stageLeft {
		mc.stageLeft[si] = mc.sch.StagePackages(si)
		mc.stageStart[si] = 0
		mc.stageEnd[si] = 0
	}
}

// Fire is the machine's event dispatcher: the kernel fires every
// scheduled event through it, and a granted bus request or a served
// buffer waiter is fired through it too.
func (mc *machine) Fire(now engine.Time, ev engine.Event) {
	i := int(ev.Index)
	switch ev.Kind {
	case evComputeDone:
		mc.requestTransfer(i, now)
	case evIntraGrant:
		mc.runIntra(i, now)
	case evIntraEnd:
		mc.finishIntra(i, now)
	case evFillAttempt:
		mc.attemptFill(i, now)
	case evFillGrant:
		mc.runFill(i, now)
	case evFillEnd:
		mc.finishFill(i, now)
	case evPump:
		mc.pumpSegment(i, now)
	case evBufFull:
		mc.arrangeHop(i, now)
	case evForward:
		mc.forward(i, now)
	case evUnloadGrant:
		mc.runUnload(i, now)
	case evUnloadEnd:
		mc.finishUnload(i, now)
	default:
		panic(fmt.Sprintf("emulator: unknown event kind %d", ev.Kind))
	}
}

func (mc *machine) bufFree(b int) bool {
	d := &mc.bufDyn[b]
	return !d.occupied && !d.reserved
}

func (mc *machine) grantTicks() int64 { return int64(mc.cfg.Overheads.GrantTicks) }
func (mc *machine) syncTicks() int64  { return int64(mc.cfg.Overheads.SyncTicks) }

// nextEmission returns FU i's next package emission; ok is false once
// every package of its flows has been claimed.
func (mc *machine) nextEmission(i int) (e emitEntry, ok bool) {
	st, d := &mc.fuStat[i], &mc.fuDyn[i]
	if d.nextFlow >= len(st.flows) {
		return emitEntry{}, false
	}
	return emitEntry{flow: st.flows[d.nextFlow], pkg: d.nextPkg + 1}, true
}

// run drives the simulation to completion and assembles the report.
func (mc *machine) run() (*Report, error) {
	mc.met.runs.Inc()
	if mc.cfg.Observer != nil && mc.sch.NumStages() > 0 {
		mc.cfg.Observer.StageStarted(mc.sch.Stages()[0].Order, 0)
	}
	for i := range mc.fuStat {
		mc.advanceFU(i, 0)
	}
	var wallStart time.Time
	if mc.met.enabled {
		wallStart = time.Now()
	}
	end, err := mc.sim.Run(mc)
	if err != nil {
		return nil, err
	}
	if mc.met.enabled {
		if secs := time.Since(wallStart).Seconds(); secs > 0 {
			mc.met.simRate.Set(float64(end) / secs)
			mc.met.evRate.Set(float64(mc.sim.Steps()) / secs)
		}
	}
	if mc.stage < len(mc.stageLeft) {
		return nil, mc.deadlockError()
	}
	return mc.report(), nil
}

// deadlockError builds a diagnostic for a model that cannot make
// progress (e.g. a same-order dependency cycle).
func (mc *machine) deadlockError() error {
	de := &DeadlockError{
		Stage:       mc.stage,
		Order:       mc.sch.Stages()[mc.stage].Order,
		Undelivered: mc.stageLeft[mc.stage],
	}
	for i := range mc.fuStat {
		d := &mc.fuDyn[i]
		e, ok := mc.nextEmission(i)
		if !ok || d.busy || mc.sch.StageOf(e.flow) != mc.stage {
			continue
		}
		de.Blocked = append(de.Blocked, BlockedProc{Proc: mc.fuStat[i].proc, Need: mc.sch.Need(e.flow, e.pkg), Have: d.received})
	}
	return de
}

// advanceFU starts the FU's next emission if it is eligible: the flow's
// stage is active and the firing gate is satisfied.
func (mc *machine) advanceFU(i int, now engine.Time) {
	st, d := &mc.fuStat[i], &mc.fuDyn[i]
	if d.busy || mc.stage >= len(mc.stageLeft) {
		return
	}
	e, ok := mc.nextEmission(i)
	if !ok || mc.sch.StageOf(e.flow) != mc.stage || d.received < mc.sch.Need(e.flow, e.pkg) {
		return
	}
	r := &mc.plan[e.flow]
	d.busy = true
	d.nextPkg++
	if d.nextPkg == r.packages {
		d.nextFlow++
		d.nextPkg = 0
	}
	clock := mc.segStat[st.seg-1].clock
	start := clock.NextEdge(now)
	if !d.started {
		d.started = true
		d.startPs = start
	}
	compEnd := start + clock.Ticks(r.ticks(e.pkg))
	if mc.cfg.Trace.Enabled() {
		f := mc.sch.Flow(e.flow)
		mc.cfg.Trace.AddInterval(st.proc.String(), traceCompute, int64(start), int64(compEnd),
			fmt.Sprintf("%s pkg %d/%d", flowLabel(f), e.pkg, r.packages))
	}
	d.pending = e
	mc.sim.At(compEnd, prioCompute, event(evComputeDone, i))
}

func flowLabel(f psdf.Flow) string {
	return fmt.Sprintf("%s->%s", f.Source, f.Target)
}

// requestTransfer raises the bus request for a computed package:
// directly at the local SA for intra-segment targets, via the CA and
// the border-unit chain otherwise.
func (mc *machine) requestTransfer(i int, now engine.Time) {
	st, d := &mc.fuStat[i], &mc.fuDyn[i]
	src, dst := st.seg, mc.plan[d.pending.flow].dst
	if src == dst {
		mc.segDyn[src-1].intraReq++
		mc.pushRequest(src-1, busReq{at: now, prio: 1, id: int(st.proc), ev: event(evIntraGrant, i)})
		return
	}

	mc.segDyn[src-1].interReq++
	buf := mc.firstBuffer(src, dst > src)
	d.xferBuf = buf
	if mc.bufFree(buf) {
		mc.attemptFill(i, now)
	} else {
		mc.bufWait[buf] = append(mc.bufWait[buf], event(evFillAttempt, i))
	}
}

// attemptFill reserves FU i's free first-hop buffer, charges the CA
// grant and chain setup, and requests the fill on the FU's segment.
func (mc *machine) attemptFill(i int, t engine.Time) {
	st, d := &mc.fuStat[i], &mc.fuDyn[i]
	mc.bufDyn[d.xferBuf].reserved = true
	grantT := mc.caGrant(t)
	if mc.plat.CAHopTicks > 0 {
		r := &mc.plan[d.pending.flow]
		setup := mc.caClock.NextEdge(grantT) + mc.caClock.Ticks(int64(r.hops*mc.plat.CAHopTicks))
		if mc.cfg.Trace.Enabled() {
			mc.cfg.Trace.AddInterval("CA", traceOverhead, int64(grantT), int64(setup),
				fmt.Sprintf("chain setup %d->%d", st.seg, r.dst))
		}
		grantT = setup
	}
	mc.pushRequest(st.seg-1, busReq{at: grantT, prio: 1, id: int(st.proc), ev: event(evFillGrant, i)})
}

// firstBuffer returns the border-unit buffer slot a master on segment
// src streams into for the given direction.
func (mc *machine) firstBuffer(src int, rightward bool) int {
	if rightward {
		return bufIndex(src, true)
	}
	return bufIndex(src-1, false)
}

// caGrant records an inter-segment request at the CA and returns the
// time the grant becomes effective. The estimation model grants
// immediately; the refined model serialises requests over CASetTicks.
func (mc *machine) caGrant(now engine.Time) engine.Time {
	mc.caRequests++
	mc.met.caRequests.Inc()
	set := int64(mc.cfg.Overheads.CASetTicks)
	if set == 0 {
		return now
	}
	t := mc.caClock.NextEdge(maxTime(now, mc.caBusyUntil))
	grant := t + mc.caClock.Ticks(set)
	mc.caBusyUntil = grant
	mc.cfg.Trace.AddInterval("CA", traceOverhead, int64(t), int64(grant), "grant set")
	return grant
}

// caRelease charges the CA's grant-reset work after the source segment
// finished its part of an inter-segment transfer.
func (mc *machine) caRelease(end engine.Time) {
	reset := int64(mc.cfg.Overheads.CAResetTicks)
	if reset == 0 {
		return
	}
	t := mc.caClock.NextEdge(maxTime(end, mc.caBusyUntil))
	mc.caBusyUntil = t + mc.caClock.Ticks(reset)
	mc.cfg.Trace.AddInterval("CA", traceOverhead, int64(t), int64(mc.caBusyUntil), "grant reset")
}

// pushRequest queues a bus request on segment si (0-based) and
// schedules a grant decision.
func (mc *machine) pushRequest(si int, r busReq) {
	r.seq = mc.reqSeq
	mc.reqSeq++
	mc.segReq[si] = append(mc.segReq[si], r)
	mc.scheduleGrant(si, maxTime(r.at, mc.sim.Now()))
}

func (mc *machine) scheduleGrant(si int, at engine.Time) {
	mc.sim.At(maxTime(at, mc.sim.Now()), prioGrant, event(evPump, si))
}

// pumpSegment is the SA's arbitration step: when the bus is free it
// grants the best eligible pending request (border-unit unloads before
// masters, then request time, then requester id).
func (mc *machine) pumpSegment(si int, now engine.Time) {
	q := mc.segReq[si]
	if len(q) == 0 {
		return
	}
	if now < mc.segDyn[si].busyUntil {
		mc.met.denials[si].Inc()
		mc.scheduleGrant(si, mc.segDyn[si].busyUntil)
		return
	}
	best := -1
	for i := range q {
		if q[i].at > now {
			continue
		}
		if best < 0 || reqLess(mc.cfg.Policy, &q[i], &q[best]) {
			best = i
		}
	}
	if best < 0 {
		earliest := engine.MaxTime
		for i := range q {
			if q[i].at < earliest {
				earliest = q[i].at
			}
		}
		mc.scheduleGrant(si, earliest)
		return
	}
	r := q[best] // copy before the splice overwrites the slot
	mc.segReq[si] = append(q[:best], q[best+1:]...)
	mc.met.grants[si].Inc()
	mc.met.contention[si].Observe(int64(now - r.at))
	if mc.cfg.Observer != nil {
		mc.cfg.Observer.TransferGranted(mc.segStat[si].index, int64(now))
	}
	mc.Fire(now, r.ev)
}

// runIntra performs an intra-segment package transfer: the bus is
// occupied for GrantTicks + s ticks of the segment clock, and the
// package is delivered to the local slave at the end.
func (mc *machine) runIntra(i int, grantAt engine.Time) {
	st, d := &mc.fuStat[i], &mc.fuDyn[i]
	e := d.pending
	si := st.seg - 1
	g := &mc.segDyn[si]
	clock := mc.segStat[si].clock
	start := clock.NextEdge(grantAt)
	dataStart := start + clock.Ticks(mc.grantTicks()+mc.header)
	end := dataStart + clock.Ticks(int64(mc.plan[e.flow].items(e.pkg)))
	g.busyUntil = end
	g.lastBusy = end
	if mc.cfg.Trace.Enabled() {
		f := mc.sch.Flow(e.flow)
		mc.cfg.Trace.AddInterval(fmt.Sprintf("Segment %d", st.seg), traceTransfer, int64(start), int64(end),
			fmt.Sprintf("%s pkg %d", flowLabel(f), e.pkg))
	}
	mc.sim.At(end, prioEffect, event(evIntraEnd, i))
}

// finishIntra completes FU i's intra-segment transfer: the package is
// delivered and the segment re-arbitrated.
func (mc *machine) finishIntra(i int, now engine.Time) {
	st, d := &mc.fuStat[i], &mc.fuDyn[i]
	d.sent++
	mc.deliver(d.pending.flow, d.pending.pkg, now)
	mc.pumpSegment(st.seg-1, now)
}

// runFill performs the first hop of an inter-segment transfer: the
// master streams the package into the reserved border-unit buffer over
// its own segment bus.
func (mc *machine) runFill(i int, grantAt engine.Time) {
	st, d := &mc.fuStat[i], &mc.fuDyn[i]
	e := d.pending
	si := st.seg - 1
	g := &mc.segDyn[si]
	clock := mc.segStat[si].clock
	buf := &mc.bufStat[d.xferBuf]
	items := mc.plan[e.flow].items(e.pkg)
	start := clock.NextEdge(grantAt)
	dataStart := start + clock.Ticks(mc.grantTicks()+mc.header)
	end := dataStart + clock.Ticks(int64(items))
	g.busyUntil = end
	g.lastBusy = end
	if mc.cfg.Trace.Enabled() {
		f := mc.sch.Flow(e.flow)
		mc.cfg.Trace.AddInterval(fmt.Sprintf("Segment %d", st.seg), traceTransfer, int64(start), int64(end),
			fmt.Sprintf("%s pkg %d fill %s", flowLabel(f), e.pkg, buf.bu.Name()))
		mc.cfg.Trace.AddInterval(buf.bu.Name(), traceBULoad, int64(dataStart), int64(end),
			fmt.Sprintf("%s pkg %d", flowLabel(f), e.pkg))
	}
	mc.sim.At(end, prioEffect, event(evFillEnd, i))
}

// finishFill completes FU i's first hop: the package is now sitting in
// the reserved border-unit buffer, the source segment is released and
// the next hop is arranged.
func (mc *machine) finishFill(i int, now engine.Time) {
	st, d := &mc.fuStat[i], &mc.fuDyn[i]
	e := d.pending
	b := d.xferBuf
	buf := &mc.bufStat[b]
	bd := &mc.bufDyn[b]
	si := st.seg - 1
	g := &mc.segDyn[si]
	r := &mc.plan[e.flow]
	items := r.items(e.pkg)
	bst := &mc.busSt[buf.bu.Left-1]
	mc.caRelease(now)
	fullAt := now + mc.segStat[si].clock.Ticks(mc.syncTicks())
	bd.reserved = false
	bd.occupied = true
	bd.pkg = transitPkg{flow: e.flow, pkg: e.pkg, items: items, srcSeg: st.seg, dstSeg: r.dst, fullAt: fullAt}
	bst.in++
	bst.loadTicks += int64(items)
	mc.met.buLoad[buf.bu.Left-1].Add(int64(items))
	if buf.rightward {
		bst.recvFromLeft++
		g.toRight++
	} else {
		bst.recvFromRight++
		g.toLeft++
	}
	// The master holds its circuit until the package reaches its
	// destination: it is released by the delivery, not here
	// (end-to-end, circuit-switched transfer semantics).
	d.sent++
	mc.pumpSegment(si, now)
	mc.startUnload(b, fullAt)
}

// startUnload arranges the next hop for a loaded buffer: either a
// delivery onto the destination segment, or a forward into the next
// border unit of the route (which must first be free).
func (mc *machine) startUnload(b int, t engine.Time) {
	mc.sim.At(maxTime(t, mc.sim.Now()), prioCompute, event(evBufFull, b))
}

// arrangeHop routes loaded buffer b's package: onto its destination
// segment, or into the next buffer of the chain once that one is free.
func (mc *machine) arrangeHop(b int, now engine.Time) {
	st, d := &mc.bufStat[b], &mc.bufDyn[b]
	if st.nextSeg == d.pkg.dstSeg {
		d.forward = -1
		mc.queueUnload(b, now)
		return
	}
	if mc.bufFree(st.next) {
		mc.forward(b, now)
	} else {
		mc.bufWait[st.next] = append(mc.bufWait[st.next], event(evForward, b))
	}
}

// forward reserves the next buffer of b's chain for b's package and
// queues the unload into it.
func (mc *machine) forward(b int, now engine.Time) {
	st, d := &mc.bufStat[b], &mc.bufDyn[b]
	mc.bufDyn[st.next].reserved = true
	d.forward = st.next
	mc.queueUnload(b, now)
}

// queueUnload raises the unload request on the buffer's next segment.
// The buffer's forward slot has been set by the caller: -1 for a
// delivery onto the destination segment, the next buffer of the chain
// otherwise.
func (mc *machine) queueUnload(b int, now engine.Time) {
	st := &mc.bufStat[b]
	ni := st.nextSeg - 1
	mc.segDyn[ni].intraReq++
	mc.pushRequest(ni, busReq{at: now, prio: 0, id: st.id, ev: event(evUnloadGrant, b)})
}

// runUnload performs one forwarding hop: the buffer's package crosses
// onto its next segment, either delivered to the target FU (forward
// == -1) or loaded into the next border unit.
func (mc *machine) runUnload(b int, grantAt engine.Time) {
	buf := &mc.bufStat[b]
	bd := &mc.bufDyn[b]
	pkg := bd.pkg
	ni := buf.nextSeg - 1
	ns := &mc.segDyn[ni]
	clock := mc.segStat[ni].clock
	start := clock.NextEdge(grantAt)
	dataStart := start + clock.Ticks(mc.grantTicks()+mc.syncTicks()+mc.header)
	end := dataStart + clock.Ticks(int64(pkg.items))
	ns.busyUntil = end
	ns.lastBusy = end
	bst := &mc.busSt[buf.bu.Left-1]
	// The waiting period (WP) of section 4: from the package being
	// loaded until the next segment's arbiter grants the unload,
	// rounded up to whole ticks of the receiving clock domain.
	if wait := int64(start - pkg.fullAt); wait > 0 {
		ticks := (wait + clock.PeriodPs() - 1) / clock.PeriodPs()
		bst.waitTicks += ticks
		mc.met.buWait[buf.bu.Left-1].Add(ticks)
		if mc.cfg.Trace.Enabled() {
			mc.cfg.Trace.AddInterval(buf.bu.Name(), traceBUWait, int64(pkg.fullAt), int64(start),
				fmt.Sprintf("%s pkg %d", flowLabel(mc.sch.Flow(pkg.flow)), pkg.pkg))
		}
	}
	bst.unloadTicks += int64(pkg.items)
	mc.met.buUnload[buf.bu.Left-1].Add(int64(pkg.items))
	if mc.cfg.Trace.Enabled() {
		f := mc.sch.Flow(pkg.flow)
		mc.cfg.Trace.AddInterval(fmt.Sprintf("Segment %d", buf.nextSeg), traceTransfer, int64(start), int64(end),
			fmt.Sprintf("%s pkg %d unload %s", flowLabel(f), pkg.pkg, buf.bu.Name()))
		mc.cfg.Trace.AddInterval(buf.bu.Name(), traceBUUnload, int64(dataStart), int64(end),
			fmt.Sprintf("%s pkg %d", flowLabel(f), pkg.pkg))
	}
	bd.dataStartPs = dataStart
	mc.sim.At(end, prioEffect, event(evUnloadEnd, b))
}

// finishUnload completes buffer b's unload: the package has crossed
// onto the next segment — deliver it or load it into the forward
// buffer, then hand the freed buffer to any waiter and pump the
// segment.
func (mc *machine) finishUnload(b int, now engine.Time) {
	buf := &mc.bufStat[b]
	bd := &mc.bufDyn[b]
	pkg := bd.pkg
	forward := bd.forward
	ni := buf.nextSeg - 1
	bst := &mc.busSt[buf.bu.Left-1]
	bst.out++
	if buf.rightward {
		bst.sentToRight++
	} else {
		bst.sentToLeft++
	}
	bd.occupied = false
	bd.pkg = transitPkg{}
	mc.serveWaiters(b, now)
	if forward < 0 {
		mc.deliver(pkg.flow, pkg.pkg, now)
	} else {
		fwd := &mc.bufStat[forward]
		fd := &mc.bufDyn[forward]
		fst := &mc.busSt[fwd.bu.Left-1]
		fullAt := now + mc.segStat[ni].clock.Ticks(mc.syncTicks())
		fd.reserved = false
		fd.occupied = true
		fd.pkg = transitPkg{flow: pkg.flow, pkg: pkg.pkg, items: pkg.items, srcSeg: pkg.srcSeg, dstSeg: pkg.dstSeg, fullAt: fullAt}
		fst.in++
		fst.loadTicks += int64(pkg.items)
		mc.met.buLoad[fwd.bu.Left-1].Add(int64(pkg.items))
		if fwd.rightward {
			fst.recvFromLeft++
		} else {
			fst.recvFromRight++
		}
		if mc.cfg.Trace.Enabled() {
			mc.cfg.Trace.AddInterval(fwd.bu.Name(), traceBULoad, int64(bd.dataStartPs), int64(now),
				fmt.Sprintf("%s pkg %d", flowLabel(mc.sch.Flow(pkg.flow)), pkg.pkg))
		}
		mc.startUnload(forward, fullAt)
	}
	mc.pumpSegment(ni, now)
}

// serveWaiters hands a freed buffer to the first registered waiter.
// The waiter list is drained front-first with a copy-down so its
// backing array is reused across the whole run.
func (mc *machine) serveWaiters(b int, now engine.Time) {
	ws := mc.bufWait[b]
	if !mc.bufFree(b) || len(ws) == 0 {
		return
	}
	w := ws[0]
	copy(ws, ws[1:])
	mc.bufWait[b] = ws[:len(ws)-1]
	mc.Fire(now, w)
}

// deliver completes one package: the target process's receive counter
// advances, the stage accounting decrements, and blocked FUs are
// re-examined.
func (mc *machine) deliver(id sched.FlowID, pkg int, now engine.Time) {
	mc.met.delivered.Inc()
	if now > mc.endPs {
		mc.endPs = now
	}
	if mc.cfg.Observer != nil {
		f := mc.sch.Flow(id)
		mc.cfg.Observer.PackageDelivered(int(f.Source), int(f.Target), pkg, int64(now))
	}
	r := &mc.plan[id]
	sd := &mc.fuDyn[r.src]
	sd.endPs = now
	sd.busy = false
	mc.advanceFU(r.src, now)
	if ti := r.tgt; ti >= 0 {
		td := &mc.fuDyn[ti]
		td.received++
		td.lastRecv = now
		td.gotRecv = true
		mc.advanceFU(ti, now)
	}
	si := mc.sch.StageOf(id)
	mc.stageLeft[si]--
	if mc.stageLeft[si] < 0 {
		panic(fmt.Sprintf("emulator: stage %d over-delivered", si))
	}
	if now > mc.stageEnd[si] {
		mc.stageEnd[si] = now
	}
	if si == mc.stage && mc.stageLeft[si] == 0 {
		mc.stage++
		if mc.stage < len(mc.stageStart) {
			mc.stageStart[mc.stage] = now
			if mc.cfg.Observer != nil {
				mc.cfg.Observer.StageStarted(mc.sch.Stages()[mc.stage].Order, int64(now))
			}
		}
		for i := range mc.fuStat {
			mc.advanceFU(i, now)
		}
	}
}

// report assembles the monitoring results following the accounting
// rules of section 4: each arbiter's TCT counts ticks from the start
// of the emulation to its own last activity; the CA additionally
// counts until the monitor detects completion; and the total execution
// time is the maximum over the arbiters of TCT × clock period.
func (mc *machine) report() *Report {
	r := &Report{
		Platform:    mc.plat.String(),
		PackageSize: mc.s,
		Refined:     !mc.cfg.Overheads.Zero(),
		EndPs:       mc.endPs,
		Steps:       mc.sim.Steps(),
	}
	for i := range mc.segStat {
		st, g := &mc.segStat[i], &mc.segDyn[i]
		seg := mc.plat.Segment(st.index)
		tct := st.clock.TicksElapsed(g.lastBusy)
		sa := SAStats{
			Segment:       st.index,
			Clock:         seg.Clock,
			TCT:           tct,
			IntraRequests: g.intraReq,
			InterRequests: g.interReq,
			ExecTimePs:    engine.Time(tct * st.clock.PeriodPs()),
		}
		r.SAs = append(r.SAs, sa)
		r.Segments = append(r.Segments, SegmentStats{Segment: st.index, ToLeft: g.toLeft, ToRight: g.toRight, LastBusy: g.lastBusy})
	}
	caTCT := mc.caClock.TicksElapsed(mc.endPs) + mc.cfg.DetectTicks
	r.CA = CAStats{
		Clock:         mc.plat.CAClock,
		TCT:           caTCT,
		InterRequests: mc.caRequests,
		ExecTimePs:    engine.Time(caTCT * mc.caClock.PeriodPs()),
	}
	r.ExecutionTimePs = r.CA.ExecTimePs
	for _, sa := range r.SAs {
		if sa.ExecTimePs > r.ExecutionTimePs {
			r.ExecutionTimePs = sa.ExecTimePs
		}
	}
	for i := range mc.busSt {
		st := &mc.busSt[i]
		r.BUs = append(r.BUs, BUStats{
			Name:          st.bu.Name(),
			Left:          st.bu.Left,
			Right:         st.bu.Right,
			InPackages:    st.in,
			OutPackages:   st.out,
			RecvFromLeft:  st.recvFromLeft,
			SentToLeft:    st.sentToLeft,
			RecvFromRight: st.recvFromRight,
			SentToRight:   st.sentToRight,
			TCT:           st.loadTicks + st.unloadTicks + st.waitTicks,
			LoadTicks:     st.loadTicks,
			UnloadTicks:   st.unloadTicks,
			WaitTicks:     st.waitTicks,
		})
	}
	for si, st := range mc.sch.Stages() {
		r.Stages = append(r.Stages, StageStats{
			Order:    st.Order,
			Packages: mc.sch.StagePackages(si),
			StartPs:  mc.stageStart[si],
			EndPs:    mc.stageEnd[si],
		})
	}
	for i := range mc.fuStat {
		st, d := &mc.fuStat[i], &mc.fuDyn[i]
		ps := ProcessStats{
			Process:       st.proc,
			Segment:       st.seg,
			StartPs:       d.startPs,
			EndPs:         d.endPs,
			SentPackages:  d.sent,
			RecvPackages:  d.received,
			LastReceivePs: d.lastRecv,
		}
		if d.sent == 0 && d.gotRecv {
			ps.StartPs = d.lastRecv
			ps.EndPs = d.lastRecv
			mc.cfg.Trace.AddMark(st.proc.String(), "received last package", int64(d.lastRecv))
		}
		r.Processes = append(r.Processes, ps)
	}
	return r
}

func maxTime(a, b engine.Time) engine.Time {
	if a > b {
		return a
	}
	return b
}
