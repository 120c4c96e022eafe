package automata

import "segbus/internal/psdf"

// Product-state byte layout. All counters are uint16 big-endian (the
// compile-time capacity guards keep them in range):
//
//	[0:2]                  current stage index (== numStages when done)
//	[2:4]                  packages left undelivered in the current stage
//	[4 : 4+2P]             per-process received-package counters
//	[4+2P : 4+2P+3E]       per-emitter {program counter u16, phase u8}
//
// The string conversion of this byte slice is the dedup hash key of
// the explorers. stage and left (and in fact the received counters)
// are functions of the emitter vector, so including them does not
// enlarge the reachable state count — it only makes decoding O(1).
const (
	offStage = 0
	offLeft  = 2
	offRecv  = 4
)

func getU16(st []byte, off int) int {
	return int(st[off])<<8 | int(st[off+1])
}

func setU16(st []byte, off, v int) {
	st[off] = byte(v >> 8)
	st[off+1] = byte(v)
}

func (s *System) stateLen() int {
	return offRecv + 2*len(s.procs) + 3*len(s.emitters)
}

func (s *System) emitterOff(ei int) int {
	return offRecv + 2*len(s.procs) + 3*ei
}

func (s *System) stage(st []byte) int { return getU16(st, offStage) }
func (s *System) left(st []byte) int  { return getU16(st, offLeft) }
func (s *System) received(st []byte, procIdx int) int {
	return getU16(st, offRecv+2*procIdx)
}
func (s *System) pc(st []byte, ei int) int { return getU16(st, s.emitterOff(ei)) }
func (s *System) phase(st []byte, ei int) Phase {
	return Phase(st[s.emitterOff(ei)+2])
}

// done reports whether every stage has completed in st.
func (s *System) done(st []byte) bool { return s.stage(st) >= s.numStages }

// initial returns the product's initial state: stage zero armed, all
// counters zero, every emitter Waiting at program entry zero.
func (s *System) initial() []byte {
	st := make([]byte, s.stateLen())
	if s.numStages > 0 {
		setU16(st, offLeft, s.sch.StagePackages(0))
	}
	return st
}

// segBusy reports whether an emitter other than ei is Transferring on
// segment seg — the bus-automaton synchronisation of the grant
// action.
func (s *System) segBusy(st []byte, seg, ei int) bool {
	for j, pj := range s.emitters {
		if j == ei {
			continue
		}
		if s.segOf[pj] == seg && s.phase(st, j) == Transferring {
			return true
		}
	}
	return false
}

// action builds the trace action for emitter ei taking kind on the
// program entry e.
func (s *System) action(kind ActionKind, ei int, e Entry) Action {
	pi := s.emitters[ei]
	return Action{
		Kind: kind,
		Proc: s.procs[pi],
		Flow: s.sch.Flow(e.Flow),
		Pkg:  e.Pkg,
		Pkgs: s.sch.Packages(e.Flow),
		Seg:  s.segOf[pi],
	}
}

// enabled reports whether emitter ei has its (unique) next transition
// enabled in st, without materialising the successor.
func (s *System) enabled(st []byte, ei int) bool {
	pi := s.emitters[ei]
	pc := s.pc(st, ei)
	if pc >= len(s.programs[pi]) {
		return false
	}
	switch s.phase(st, ei) {
	case Waiting:
		e := s.programs[pi][pc]
		return !s.done(st) &&
			s.sch.StageOf(e.Flow) == s.stage(st) &&
			s.received(st, pi) >= e.Need
	case RequestingBus:
		return !s.segBusy(st, s.segOf[pi], ei)
	default: // Computing, Transferring: always enabled
		return true
	}
}

// step applies emitter ei's next transition to a copy of st and
// returns the action and successor. It must only be called when
// enabled(st, ei) holds.
func (s *System) step(st []byte, ei int) (Action, []byte) {
	pi := s.emitters[ei]
	pc := s.pc(st, ei)
	e := s.programs[pi][pc]
	ns := make([]byte, len(st))
	copy(ns, st)
	off := s.emitterOff(ei)
	switch s.phase(st, ei) {
	case Waiting:
		ns[off+2] = byte(Computing)
		return s.action(ActStart, ei, e), ns
	case Computing:
		ns[off+2] = byte(RequestingBus)
		return s.action(ActRequest, ei, e), ns
	case RequestingBus:
		ns[off+2] = byte(Transferring)
		return s.action(ActGrant, ei, e), ns
	}
	// Transferring: deliver the package, advance the program, bump
	// the receiver and the stage accounting.
	setU16(ns, off, pc+1)
	ns[off+2] = byte(Waiting)
	f := s.sch.Flow(e.Flow)
	if f.Target != psdf.SystemOutput {
		ti := s.procIdx[f.Target]
		setU16(ns, offRecv+2*ti, s.received(st, ti)+1)
	}
	left := s.left(st) - 1
	if left == 0 {
		stage := s.stage(st) + 1
		setU16(ns, offStage, stage)
		if stage < s.numStages {
			left = s.sch.StagePackages(stage)
		}
	}
	setU16(ns, offLeft, left)
	return s.action(ActDeliver, ei, e), ns
}

// succ enumerates the successors of st in the fixed deterministic
// order (ascending emitter index) and returns how many transitions
// were enabled. A state with zero successors is either done (every
// stage complete) or stuck — a reachable deadlock.
func (s *System) succ(st []byte, yield func(a Action, ns []byte)) int {
	n := 0
	for ei := range s.emitters {
		if !s.enabled(st, ei) {
			continue
		}
		n++
		if yield != nil {
			a, ns := s.step(st, ei)
			yield(a, ns)
		}
	}
	return n
}
