package conform

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"segbus/internal/automata"
	"segbus/internal/core"
	"segbus/internal/dsl"
	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// errSkip is the sentinel an oracle returns when it does not apply to
// a case (e.g. package size already 1 for shrink-package). Skips are
// tallied separately from passes.
var errSkip = errors.New("conform: oracle not applicable")

// Oracle is one conformance property. Check returns nil on pass,
// errSkip when the case is out of the oracle's domain, and a
// descriptive error on a violation.
type Oracle struct {
	Name  string
	Doc   string
	Check func(*Case) error
}

// oracleList is the built-in battery, in execution order: cheap and
// load-bearing properties first.
var oracleList = []*Oracle{
	{
		Name:  "bounds",
		Doc:   "LB ≤ estimate ≤ UB (SB201) and LB ≤ refined ≤ UB + overhead allowance",
		Check: checkBounds,
	},
	{
		Name:  "envelope",
		Doc:   "|refined - estimate| stays inside the per-package overhead envelope",
		Check: checkEnvelope,
	},
	{
		Name:  "determinism",
		Doc:   "identical inputs yield byte-identical reports and traces",
		Check: checkDeterminism,
	},
	{
		Name:  "pooled",
		Doc:   "a reused (pooled) emulator machine reproduces the fresh-machine report byte for byte",
		Check: checkPooled,
	},
	{
		Name:  "grow-segment",
		Doc:   "appending a platform segment never decreases the estimated time",
		Check: checkGrowSegment,
	},
	{
		Name:  "shrink-package",
		Doc:   "shrinking the package size never decreases border-unit crossings",
		Check: checkShrinkPackage,
	},
	{
		Name:  "permute-ids",
		Doc:   "relabeling a tie-free same-segment process pair preserves the estimate",
		Check: checkPermuteIDs,
	},
	{
		Name:  "reachability",
		Doc:   "exact checker verdict (deadlock vs terminates) matches the emulator outcome",
		Check: checkReachability,
	},
}

// checkReachability cross-validates the exact reachability checker
// (internal/automata) against the emulator: the checker's
// deadlock-versus-terminates verdict must match whether the
// estimation run actually gets stuck, and a deadlock verdict's
// counterexample must replay into a stuck product state. The
// schedule's closed-form fixpoint (sched.Schedule.Drains), which
// decides the verdict in preflight, must agree with the checker.
// Models the compiler rejects (the validators own those) and
// budget-exhausted explorations are out of the oracle's domain.
func checkReachability(c *Case) error {
	sys, err := automata.Compile(c.Doc.Model, c.Doc.Platform)
	if err != nil {
		return errSkip
	}
	res := sys.Check(automata.Options{})
	if res.Verdict == automata.Inconclusive {
		return errSkip
	}
	if drains := sys.Schedule().Drains(); drains != (res.Verdict == automata.Terminates) {
		return fmt.Errorf("schedule fixpoint drains=%v disagrees with checker verdict %v", drains, res.Verdict)
	}

	_, estErr := c.Est()
	var dl *emulator.DeadlockError
	emuDeadlock := errors.As(estErr, &dl)
	if estErr != nil && !emuDeadlock {
		return fmt.Errorf("emulator failed for a non-deadlock reason on a compilable model: %w", estErr)
	}
	if emuDeadlock != (res.Verdict == automata.Deadlocks) {
		return fmt.Errorf("checker verdict %v disagrees with the emulator (deadlock=%v, err=%v)",
			res.Verdict, emuDeadlock, estErr)
	}
	if res.Verdict == automata.Deadlocks {
		stuck, rerr := sys.Replay(res.Trace)
		if rerr != nil {
			return fmt.Errorf("counterexample does not replay: %w", rerr)
		}
		if !stuck {
			return fmt.Errorf("counterexample replays to a live state")
		}
	}
	return nil
}

// pooledShared is the one machine the pooled oracle reuses across
// every case of a battery run — deliberately shared, so each check
// runs on a machine dirtied by arbitrary earlier cases (including
// ones whose runs failed), exactly the state a serving pool recycles.
var pooledShared = struct {
	mu sync.Mutex
	mc *emulator.Machine
}{mc: emulator.NewMachine()}

// checkPooled runs the case on the shared reused machine and on a
// fresh machine and requires indistinguishable outcomes: equal error
// strings, byte-identical report JSON. This is the conformance-level
// half of the machine-reuse battery (the emulator reuse tests own the
// op-sequence fuzzing; the serve pool stress owns the HTTP layer).
func checkPooled(c *Case) error {
	if c.Doc.Platform == nil {
		return errSkip
	}
	fresh, freshErr := emulator.Run(c.Doc.Model, c.Doc.Platform, emulator.Config{})
	pooledShared.mu.Lock()
	warm, warmErr := pooledShared.mc.Run(c.Doc.Model, c.Doc.Platform, emulator.Config{})
	pooledShared.mu.Unlock()
	if (freshErr == nil) != (warmErr == nil) {
		return fmt.Errorf("pooled machine error %v, fresh machine error %v", warmErr, freshErr)
	}
	if freshErr != nil {
		if freshErr.Error() != warmErr.Error() {
			return fmt.Errorf("pooled machine error %q, fresh machine error %q", warmErr, freshErr)
		}
		return nil
	}
	fb, err := fresh.JSON()
	if err != nil {
		return err
	}
	wb, err := warm.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(fb, wb) {
		return fmt.Errorf("pooled machine report differs from fresh machine report")
	}
	return nil
}

// Oracles returns the built-in oracle battery in execution order.
func Oracles() []*Oracle {
	out := make([]*Oracle, len(oracleList))
	copy(out, oracleList)
	return out
}

// SelectOracles resolves oracle names (nil or empty selects all),
// preserving battery order and rejecting unknown names.
func SelectOracles(names []string) ([]*Oracle, error) {
	if len(names) == 0 {
		return Oracles(), nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []*Oracle
	for _, o := range oracleList {
		if want[o.Name] {
			out = append(out, o)
			delete(want, o.Name)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("conform: unknown oracle(s): %v (see -list)", unknown)
	}
	return out, nil
}

// paperOverheads are the timing factors the paper quotes for the
// skipped protocol work (section 3.6: about two ticks per clock-domain
// crossing, 2-3 ticks of arbiter work, the grant/response bundle).
// The overhead allowance of the bounds and envelope oracles is
// anchored to these figures rather than to realplat's live constants,
// so a corrupted refined model is caught instead of silently trusted.
var paperOverheads = emulator.Overheads{
	GrantTicks:   8,
	SyncTicks:    2,
	CASetTicks:   2,
	CAResetTicks: 2,
}

// overheadAllowancePs bounds, from the model pair alone, how much
// slower than the estimation model the refined model may legitimately
// run: every package transfer is charged its full serialised overhead
// (grant work on each of its 1+hops bus transactions, two
// clock-domain synchronisations per crossing, CA set/reset work) plus
// a clock-edge alignment allowance for the extra scheduling points the
// overheads introduce. Like the SB201 upper bound it over-approximates
// on purpose: it must never be exceeded by a faithful refined model,
// whatever the schedule does.
func overheadAllowancePs(m *psdf.Model, plat *platform.Platform, ov emulator.Overheads) int64 {
	caPeriod := plat.CAClock.PeriodPs()
	maxPeriod := caPeriod
	for _, seg := range plat.Segments {
		if p := seg.Clock.PeriodPs(); p > maxPeriod {
			maxPeriod = p
		}
	}
	s := plat.PackageSize
	var total int64
	for _, f := range m.Flows() {
		srcSeg := plat.SegmentOf(f.Source)
		dstSeg := srcSeg
		if f.Target != psdf.SystemOutput {
			dstSeg = plat.SegmentOf(f.Target)
		}
		h := int64(plat.Hops(srcSeg, dstSeg))
		per := int64(ov.GrantTicks)*(1+h)*maxPeriod +
			int64(ov.SyncTicks)*2*h*maxPeriod +
			int64(ov.CASetTicks+ov.CAResetTicks)*(1+h)*caPeriod +
			(4+3*h)*maxPeriod // alignment slack for the added scheduling points
		total += int64(f.Packages(s)) * per
	}
	return total
}

// checkBounds verifies the bound chain across both timing models. For
// the estimation model the SB201 property is exact:
// LowerPs ≤ estimate ≤ UpperPs. The refined model must stay inside
// [LowerPs, UpperPs + allowance] — the static bounds count work that
// any faithful execution pays, and it may exceed the estimation-model
// upper bound only by the serialised overhead work. The stronger
// estimate ≤ refined holds only without bus contention: overheads
// shift arbitration request times, and under contention the arbiter
// may pick a different — equally valid — winner order whose
// interleaving finishes earlier (a classic scheduling anomaly). With
// at most one flow-sourcing process there is no arbitration anywhere
// and overheads are provably monotone, so there the chain is enforced
// in full.
func checkBounds(c *Case) error {
	b, err := c.Bounds()
	if err != nil {
		return fmt.Errorf("bounds computation: %w", err)
	}
	est, err := c.Est()
	if err != nil {
		return fmt.Errorf("estimation run: %w", err)
	}
	act, err := c.Act()
	if err != nil {
		return fmt.Errorf("refined run: %w", err)
	}
	e := est.ExecutionTimePs()
	a := int64(act.ExecutionTimePs)
	if e < b.LowerPs {
		return fmt.Errorf("estimate %d ps below static lower bound %d ps", e, b.LowerPs)
	}
	if e > b.UpperPs {
		return fmt.Errorf("estimate %d ps above static upper bound %d ps", e, b.UpperPs)
	}
	if a < b.LowerPs {
		return fmt.Errorf("refined run %d ps below static lower bound %d ps", a, b.LowerPs)
	}
	if contentionFree(c.Doc.Model) && a < e {
		return fmt.Errorf("refined run %d ps faster than estimate %d ps on a contention-free model (overheads can only add time without arbitration)", a, e)
	}
	allow := overheadAllowancePs(c.Doc.Model, c.Doc.Platform, paperOverheads)
	if a > b.UpperPs+allow {
		return fmt.Errorf("refined run %d ps exceeds upper bound %d ps + overhead allowance %d ps (refined overheads inconsistent with the paper's figures?)",
			a, b.UpperPs, allow)
	}
	return nil
}

// contentionFree reports whether the model has at most one
// flow-sourcing process. A single master never competes for a segment
// bus or the central arbiter, so no overhead-induced request shift can
// reorder grants — the refined model is then provably no faster than
// the estimation model.
func contentionFree(m *psdf.Model) bool {
	sources := make(map[psdf.ProcessID]bool)
	for _, f := range m.Flows() {
		sources[f.Source] = true
	}
	return len(sources) <= 1
}

// checkEnvelope verifies the paper's relative-error claim: the gap
// between the estimation model and the refined model stays inside an
// envelope proportional to the per-package overhead work — which grows
// as packages shrink, exactly the Discussion-of-section-4 prediction.
// The envelope is two-sided: the estimate usually under-estimates
// (positive error, skipped overheads), but under contention an
// overhead-shifted arbitration order can also finish earlier than the
// zero-overhead schedule (see checkBounds); either way the deviation
// is driven by, and bounded by, the overhead work per package.
func checkEnvelope(c *Case) error {
	est, err := c.Est()
	if err != nil {
		return fmt.Errorf("estimation run: %w", err)
	}
	act, err := c.Act()
	if err != nil {
		return fmt.Errorf("refined run: %w", err)
	}
	e := est.ExecutionTimePs()
	a := int64(act.ExecutionTimePs)
	if a == 0 {
		return errSkip
	}
	errPs := a - e
	if errPs < 0 {
		errPs = -errPs
	}
	allow := overheadAllowancePs(c.Doc.Model, c.Doc.Platform, paperOverheads)
	if errPs > allow {
		frac := float64(errPs) / float64(a)
		return fmt.Errorf("estimation error %d ps (%.1f%%) outside the overhead envelope %d ps for package size %d (estimate %d ps, refined %d ps)",
			errPs, 100*frac, allow, c.Doc.Platform.PackageSize, e, a)
	}
	return nil
}

// checkDeterminism runs the estimation model twice on the same inputs
// and compares the rendered report and trace byte for byte.
func checkDeterminism(c *Case) error {
	first, err := c.Est()
	if err != nil {
		return fmt.Errorf("estimation run: %w", err)
	}
	second, err := core.Estimate(c.Doc.Model, c.Doc.Platform, core.Options{Trace: true})
	if err != nil {
		return fmt.Errorf("repeat estimation run: %w", err)
	}
	r1, err := first.Report.JSON()
	if err != nil {
		return err
	}
	r2, err := second.Report.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(r1, r2) {
		return fmt.Errorf("report JSON differs between identical runs")
	}
	t1, err := first.Trace.JSON()
	if err != nil {
		return err
	}
	t2, err := second.Trace.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(t1, t2) {
		return fmt.Errorf("trace JSON differs between identical runs")
	}
	return nil
}

// cloneDoc deep-copies a document (model, platform, stereotypes).
func cloneDoc(doc *dsl.Document) *dsl.Document {
	out := &dsl.Document{
		Model:      doc.Model.Clone(),
		Stereotype: make(map[psdf.ProcessID]dsl.Stereotype, len(doc.Stereotype)),
	}
	if doc.Platform != nil {
		out.Platform = doc.Platform.Clone()
	}
	for p, st := range doc.Stereotype {
		out.Stereotype[p] = st
	}
	return out
}
