package emulator

import (
	"encoding/json"
	"strconv"
)

// JSON renders the report as its versioned JSON document: the bytes
// AppendJSON appends to an empty buffer.
func (r *Report) JSON() ([]byte, error) {
	return r.AppendJSON(nil), nil
}

// Indents of the document's nesting levels: top-level fields, the
// fields of the CA object and the elements of the section arrays, and
// the fields of those elements.
const (
	ind1 = "\n  "
	ind2 = "\n    "
	ind3 = "\n      "
)

// AppendJSON appends the report's versioned JSON document to dst and
// returns the extended buffer. The document is the stable export shape
// for external dashboards and regression tooling: times are integer
// picoseconds, and the version field lets consumers detect format
// changes.
//
// The encoder is hand-written, without reflection, and produces
// exactly what encoding/json's MarshalIndent(doc, "", "  ") produces
// for the document's mirror structs (kept as the oracle in
// json_test.go): the same key order and indentation, null for an
// empty section, and encoding/json's escaping of strings. It allocates
// only when dst runs out of capacity, or for a string that needs
// escaping.
func (r *Report) AppendJSON(dst []byte) []byte {
	dst = append(dst, "{"+ind1+`"version": 1,`+ind1+`"platform": `...)
	dst = appendString(dst, r.Platform)
	dst = appendField(dst, ","+ind1+`"package_size": `, int64(r.PackageSize))
	dst = append(dst, ","+ind1+`"refined": `...)
	dst = strconv.AppendBool(dst, r.Refined)
	dst = appendField(dst, ","+ind1+`"execution_time_ps": `, int64(r.ExecutionTimePs))
	dst = appendField(dst, ","+ind1+`"end_ps": `, int64(r.EndPs))

	dst = append(dst, ","+ind1+`"ca": {`+ind2+`"clock_hz": `...)
	dst = strconv.AppendInt(dst, int64(r.CA.Clock), 10)
	dst = appendField(dst, ","+ind2+`"tct": `, r.CA.TCT)
	dst = appendField(dst, ","+ind2+`"inter_requests": `, int64(r.CA.InterRequests))
	dst = appendField(dst, ","+ind2+`"exec_time_ps": `, int64(r.CA.ExecTimePs))
	dst = append(dst, ind1+"}"...)

	dst = appendSection(dst, "sas", len(r.SAs))
	for i := range r.SAs {
		sa := &r.SAs[i]
		dst = openElement(dst, i, "segment")
		dst = strconv.AppendInt(dst, int64(sa.Segment), 10)
		dst = appendField(dst, ","+ind3+`"clock_hz": `, int64(sa.Clock))
		dst = appendField(dst, ","+ind3+`"tct": `, sa.TCT)
		dst = appendField(dst, ","+ind3+`"intra_requests": `, int64(sa.IntraRequests))
		dst = appendField(dst, ","+ind3+`"inter_requests": `, int64(sa.InterRequests))
		dst = appendField(dst, ","+ind3+`"exec_time_ps": `, int64(sa.ExecTimePs))
	}
	dst = endSection(dst, len(r.SAs))

	dst = appendSection(dst, "bus", len(r.BUs))
	for i := range r.BUs {
		bu := &r.BUs[i]
		dst = openElement(dst, i, "name")
		dst = appendString(dst, bu.Name)
		dst = appendField(dst, ","+ind3+`"in_packages": `, int64(bu.InPackages))
		dst = appendField(dst, ","+ind3+`"out_packages": `, int64(bu.OutPackages))
		dst = appendField(dst, ","+ind3+`"recv_from_left": `, int64(bu.RecvFromLeft))
		dst = appendField(dst, ","+ind3+`"sent_to_left": `, int64(bu.SentToLeft))
		dst = appendField(dst, ","+ind3+`"recv_from_right": `, int64(bu.RecvFromRight))
		dst = appendField(dst, ","+ind3+`"sent_to_right": `, int64(bu.SentToRight))
		dst = appendField(dst, ","+ind3+`"tct": `, bu.TCT)
		dst = appendField(dst, ","+ind3+`"load_ticks": `, bu.LoadTicks)
		dst = appendField(dst, ","+ind3+`"unload_ticks": `, bu.UnloadTicks)
		dst = appendField(dst, ","+ind3+`"wait_ticks": `, bu.WaitTicks)
	}
	dst = endSection(dst, len(r.BUs))

	dst = appendSection(dst, "segments", len(r.Segments))
	for i := range r.Segments {
		s := &r.Segments[i]
		dst = openElement(dst, i, "segment")
		dst = strconv.AppendInt(dst, int64(s.Segment), 10)
		dst = appendField(dst, ","+ind3+`"to_left": `, int64(s.ToLeft))
		dst = appendField(dst, ","+ind3+`"to_right": `, int64(s.ToRight))
	}
	dst = endSection(dst, len(r.Segments))

	dst = appendSection(dst, "processes", len(r.Processes))
	for i := range r.Processes {
		p := &r.Processes[i]
		// The name is psdf.ProcessID.String's "P<id>": ASCII that
		// never needs escaping.
		dst = openElement(dst, i, "process")
		dst = append(dst, `"P`...)
		dst = strconv.AppendInt(dst, int64(p.Process), 10)
		dst = append(dst, '"')
		dst = appendField(dst, ","+ind3+`"segment": `, int64(p.Segment))
		dst = appendField(dst, ","+ind3+`"start_ps": `, int64(p.StartPs))
		dst = appendField(dst, ","+ind3+`"end_ps": `, int64(p.EndPs))
		dst = appendField(dst, ","+ind3+`"sent_packages": `, int64(p.SentPackages))
		dst = appendField(dst, ","+ind3+`"recv_packages": `, int64(p.RecvPackages))
		dst = appendField(dst, ","+ind3+`"last_receive_ps": `, int64(p.LastReceivePs))
	}
	dst = endSection(dst, len(r.Processes))

	dst = appendSection(dst, "stages", len(r.Stages))
	for i := range r.Stages {
		st := &r.Stages[i]
		dst = openElement(dst, i, "order")
		dst = strconv.AppendInt(dst, int64(st.Order), 10)
		dst = appendField(dst, ","+ind3+`"packages": `, int64(st.Packages))
		dst = appendField(dst, ","+ind3+`"start_ps": `, int64(st.StartPs))
		dst = appendField(dst, ","+ind3+`"end_ps": `, int64(st.EndPs))
	}
	dst = endSection(dst, len(r.Stages))
	return append(dst, "\n}"...)
}

// appendField appends an integer field after the first of its object:
// its prefix, `,<indent>"<key>": `, then v.
func appendField(dst []byte, prefix string, v int64) []byte {
	return strconv.AppendInt(append(dst, prefix...), v, 10)
}

// appendSection opens the top-level array field key of n elements. An
// empty section is null, as encoding/json renders a nil slice, so it
// needs no closing.
func appendSection(dst []byte, key string, n int) []byte {
	dst = append(dst, ","+ind1+`"`...)
	dst = append(dst, key...)
	if n == 0 {
		return append(dst, `": null`...)
	}
	return append(dst, `": [`...)
}

// openElement opens the i-th object of a section up to the value of
// its first field, key, closing the previous object first.
func openElement(dst []byte, i int, key string) []byte {
	if i > 0 {
		dst = append(dst, ind2+"},"...)
	}
	dst = append(dst, ind2+"{"+ind3+`"`...)
	dst = append(dst, key...)
	return append(dst, `": `...)
}

// endSection closes the last object and the array of a section of n
// elements.
func endSection(dst []byte, n int) []byte {
	if n == 0 {
		return dst
	}
	return append(dst, ind2+"}"+ind1+"]"...)
}

// appendString appends s as a JSON string. Printable ASCII other than
// '"', '\\' and encoding/json's HTML escapes ('<', '>', '&') is copied
// as is; any other string is encoded by encoding/json itself, which
// keeps its escapes, its U+FFFD for invalid UTF-8 and its \u2028 and
// \u2029 escapes without a second implementation of them.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
