package psdf

import (
	"fmt"
	"strings"
)

// CommMatrix is the communication matrix of an application: the
// specification of device-to-device transactions between application
// components (section 3.5). Entry (i, j) holds the number of data
// items process Pi sends to process Pj over the whole execution.
//
// The matrix is square over the process identifiers 0..N-1 where N is
// one past the largest process id appearing in the model; gaps in the
// id space appear as all-zero rows/columns.
type CommMatrix struct {
	n     int
	items []int // row-major n×n
}

// NewCommMatrix returns a zero matrix for n processes.
func NewCommMatrix(n int) *CommMatrix {
	if n < 0 {
		panic("psdf: negative communication matrix size")
	}
	return &CommMatrix{n: n, items: make([]int, n*n)}
}

// CommunicationMatrix builds the communication matrix of the model by
// accumulating the data items of every flow (the PlaceTool input of
// section 3.5). Flows towards the system output are not represented in
// the matrix, matching the paper's example.
func (m *Model) CommunicationMatrix() *CommMatrix {
	n := 0
	if procs := m.sortedProcesses(); len(procs) > 0 {
		n = max(0, int(procs[len(procs)-1])+1)
	}
	cm := NewCommMatrix(n)
	for _, f := range m.flows {
		if f.Target == SystemOutput {
			continue
		}
		cm.Add(f.Source, f.Target, f.Items)
	}
	return cm
}

// Size returns the matrix dimension (number of process slots).
func (cm *CommMatrix) Size() int { return cm.n }

// At returns the number of data items sent from src to dst.
func (cm *CommMatrix) At(src, dst ProcessID) int {
	cm.check(src, dst)
	return cm.items[int(src)*cm.n+int(dst)]
}

// Set overwrites the (src, dst) entry.
func (cm *CommMatrix) Set(src, dst ProcessID, items int) {
	cm.check(src, dst)
	cm.items[int(src)*cm.n+int(dst)] = items
}

// Add accumulates items into the (src, dst) entry.
func (cm *CommMatrix) Add(src, dst ProcessID, items int) {
	cm.check(src, dst)
	cm.items[int(src)*cm.n+int(dst)] += items
}

func (cm *CommMatrix) check(src, dst ProcessID) {
	if int(src) < 0 || int(src) >= cm.n || int(dst) < 0 || int(dst) >= cm.n {
		panic(fmt.Sprintf("psdf: communication matrix index (%s,%s) out of range [0,%d)", src, dst, cm.n))
	}
}

// Total returns the sum of all entries (total data items exchanged).
func (cm *CommMatrix) Total() int {
	t := 0
	for _, v := range cm.items {
		t += v
	}
	return t
}

// RowSum returns the total items emitted by src.
func (cm *CommMatrix) RowSum(src ProcessID) int {
	cm.check(src, 0)
	t := 0
	for j := 0; j < cm.n; j++ {
		t += cm.items[int(src)*cm.n+j]
	}
	return t
}

// ColSum returns the total items received by dst.
func (cm *CommMatrix) ColSum(dst ProcessID) int {
	cm.check(0, dst)
	t := 0
	for i := 0; i < cm.n; i++ {
		t += cm.items[i*cm.n+int(dst)]
	}
	return t
}

// Equal reports whether two matrices have the same size and entries.
func (cm *CommMatrix) Equal(other *CommMatrix) bool {
	if other == nil || cm.n != other.n {
		return false
	}
	for i, v := range cm.items {
		if other.items[i] != v {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the matrix.
func (cm *CommMatrix) Clone() *CommMatrix {
	c := NewCommMatrix(cm.n)
	copy(c.items, cm.items)
	return c
}

// CrossTraffic returns the number of data items that cross between the
// two process sets defined by seg: seg(p) gives the segment index of
// process p. Entries where source and destination map to the same
// segment are excluded. Used by the placement optimizer to score
// allocations.
func (cm *CommMatrix) CrossTraffic(seg func(ProcessID) int) int {
	t := 0
	for i := 0; i < cm.n; i++ {
		for j := 0; j < cm.n; j++ {
			v := cm.items[i*cm.n+j]
			if v == 0 {
				continue
			}
			if seg(ProcessID(i)) != seg(ProcessID(j)) {
				t += v
			}
		}
	}
	return t
}

// String renders the matrix in the layout of the paper's Figure 8: a
// header row of process names and one row per source process.
func (cm *CommMatrix) String() string {
	var b strings.Builder
	width := 5
	fmt.Fprintf(&b, "%*s", width, "")
	for j := 0; j < cm.n; j++ {
		fmt.Fprintf(&b, "%*s", width, ProcessID(j))
	}
	b.WriteByte('\n')
	for i := 0; i < cm.n; i++ {
		fmt.Fprintf(&b, "%*s", width, ProcessID(i))
		for j := 0; j < cm.n; j++ {
			fmt.Fprintf(&b, "%*d", width, cm.items[i*cm.n+j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
