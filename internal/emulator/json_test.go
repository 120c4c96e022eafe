package emulator

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"segbus/internal/apps"
)

// The mirror structs below and oracleJSON are the reference encoding
// of a Report that AppendJSON must reproduce byte for byte: the
// versioned document run through encoding/json's MarshalIndent. Every
// section is built with append from nil, so an empty one is null.

type reportJSON struct {
	Version         int         `json:"version"`
	Platform        string      `json:"platform"`
	PackageSize     int         `json:"package_size"`
	Refined         bool        `json:"refined"`
	ExecutionTimePs int64       `json:"execution_time_ps"`
	EndPs           int64       `json:"end_ps"`
	CA              caJSON      `json:"ca"`
	SAs             []saJSON    `json:"sas"`
	BUs             []buJSON    `json:"bus"`
	Segments        []segJSON   `json:"segments"`
	Processes       []procJSON  `json:"processes"`
	Stages          []stageJSON `json:"stages"`
}

type caJSON struct {
	ClockHz       int64 `json:"clock_hz"`
	TCT           int64 `json:"tct"`
	InterRequests int   `json:"inter_requests"`
	ExecTimePs    int64 `json:"exec_time_ps"`
}

type saJSON struct {
	Segment       int   `json:"segment"`
	ClockHz       int64 `json:"clock_hz"`
	TCT           int64 `json:"tct"`
	IntraRequests int   `json:"intra_requests"`
	InterRequests int   `json:"inter_requests"`
	ExecTimePs    int64 `json:"exec_time_ps"`
}

type buJSON struct {
	Name          string `json:"name"`
	InPackages    int    `json:"in_packages"`
	OutPackages   int    `json:"out_packages"`
	RecvFromLeft  int    `json:"recv_from_left"`
	SentToLeft    int    `json:"sent_to_left"`
	RecvFromRight int    `json:"recv_from_right"`
	SentToRight   int    `json:"sent_to_right"`
	TCT           int64  `json:"tct"`
	LoadTicks     int64  `json:"load_ticks"`
	UnloadTicks   int64  `json:"unload_ticks"`
	WaitTicks     int64  `json:"wait_ticks"`
}

type segJSON struct {
	Segment int `json:"segment"`
	ToLeft  int `json:"to_left"`
	ToRight int `json:"to_right"`
}

type procJSON struct {
	Process       string `json:"process"`
	Segment       int    `json:"segment"`
	StartPs       int64  `json:"start_ps"`
	EndPs         int64  `json:"end_ps"`
	SentPackages  int    `json:"sent_packages"`
	RecvPackages  int    `json:"recv_packages"`
	LastReceivePs int64  `json:"last_receive_ps"`
}

type stageJSON struct {
	Order    int   `json:"order"`
	Packages int   `json:"packages"`
	StartPs  int64 `json:"start_ps"`
	EndPs    int64 `json:"end_ps"`
}

// oracleJSON renders r through the mirror structs and MarshalIndent.
func oracleJSON(r *Report) ([]byte, error) {
	doc := reportJSON{
		Version:         1,
		Platform:        r.Platform,
		PackageSize:     r.PackageSize,
		Refined:         r.Refined,
		ExecutionTimePs: int64(r.ExecutionTimePs),
		EndPs:           int64(r.EndPs),
		CA: caJSON{
			ClockHz:       int64(r.CA.Clock),
			TCT:           r.CA.TCT,
			InterRequests: r.CA.InterRequests,
			ExecTimePs:    int64(r.CA.ExecTimePs),
		},
	}
	for _, sa := range r.SAs {
		doc.SAs = append(doc.SAs, saJSON{
			Segment:       sa.Segment,
			ClockHz:       int64(sa.Clock),
			TCT:           sa.TCT,
			IntraRequests: sa.IntraRequests,
			InterRequests: sa.InterRequests,
			ExecTimePs:    int64(sa.ExecTimePs),
		})
	}
	for _, bu := range r.BUs {
		doc.BUs = append(doc.BUs, buJSON{
			Name:          bu.Name,
			InPackages:    bu.InPackages,
			OutPackages:   bu.OutPackages,
			RecvFromLeft:  bu.RecvFromLeft,
			SentToLeft:    bu.SentToLeft,
			RecvFromRight: bu.RecvFromRight,
			SentToRight:   bu.SentToRight,
			TCT:           bu.TCT,
			LoadTicks:     bu.LoadTicks,
			UnloadTicks:   bu.UnloadTicks,
			WaitTicks:     bu.WaitTicks,
		})
	}
	for _, s := range r.Segments {
		doc.Segments = append(doc.Segments, segJSON{Segment: s.Segment, ToLeft: s.ToLeft, ToRight: s.ToRight})
	}
	for _, p := range r.Processes {
		doc.Processes = append(doc.Processes, procJSON{
			Process:       p.Process.String(),
			Segment:       p.Segment,
			StartPs:       int64(p.StartPs),
			EndPs:         int64(p.EndPs),
			SentPackages:  p.SentPackages,
			RecvPackages:  p.RecvPackages,
			LastReceivePs: int64(p.LastReceivePs),
		})
	}
	for _, st := range r.Stages {
		doc.Stages = append(doc.Stages, stageJSON{
			Order:    st.Order,
			Packages: st.Packages,
			StartPs:  int64(st.StartPs),
			EndPs:    int64(st.EndPs),
		})
	}
	return json.MarshalIndent(doc, "", "  ")
}

// checkAppendJSON fails t unless AppendJSON, onto an empty buffer and
// after a prefix, and JSON all render r exactly as oracleJSON does.
func checkAppendJSON(t *testing.T, r *Report) {
	t.Helper()
	want, err := oracleJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from the oracle:\n got %q\nwant %q", got, want)
	}
	prefix := []byte("prefix")
	if got := r.AppendJSON(prefix[:len(prefix):len(prefix)]); !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendJSON after a prefix: got %q", got)
	}
	if got, err := r.JSON(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("JSON = %q, %v; want the oracle's bytes", got, err)
	}
}

// fuzzReport builds a report whose five sections (SAs, BUs, segments,
// processes, stages) have the lengths shape[0..4] mod 5, and whose
// integer fields, in declaration order, take the values that the
// remaining bytes of shape select, cyclically: 0, ±1, the extremes of
// int64 (int is 64 bits wide on the platforms the module targets) or
// a and b. Clocks are the selected value as a float. An empty section
// is nil or, when its length byte is odd, an empty non-nil slice.
func fuzzReport(platform, name string, refined bool, shape []byte, a, b int64) *Report {
	var lens [5]int
	var empty [5]bool
	for i := range lens {
		if i < len(shape) {
			lens[i] = int(shape[i] % 5)
			empty[i] = lens[i] == 0 && shape[i]%2 == 1
		}
	}
	picks := []byte{0}
	if len(shape) > len(lens) {
		picks = shape[len(lens):]
	}
	vals := [...]int64{0, 1, -1, math.MinInt64, math.MaxInt64, a, b}
	k := 0
	next := func() int64 {
		v := vals[int(picks[k%len(picks)])%len(vals)]
		k++
		return v
	}
	r := &Report{Platform: platform, Refined: refined}
	sections := []reflect.Value{
		reflect.ValueOf(&r.SAs), reflect.ValueOf(&r.BUs), reflect.ValueOf(&r.Segments),
		reflect.ValueOf(&r.Processes), reflect.ValueOf(&r.Stages),
	}
	for i, s := range sections {
		if lens[i] > 0 || empty[i] {
			s.Elem().Set(reflect.MakeSlice(s.Elem().Type(), lens[i], lens[i]))
		}
	}
	fillInts(reflect.ValueOf(r).Elem(), next)
	for i := range r.BUs {
		r.BUs[i].Name = name
	}
	return r
}

// fillInts sets every signed integer and float field reachable from v,
// through structs and slice elements, to successive values of next.
func fillInts(v reflect.Value, next func() int64) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(next())
	case reflect.Float64:
		v.SetFloat(float64(next()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillInts(v.Field(i), next)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fillInts(v.Index(i), next)
		}
	}
}

// FuzzReportJSON holds AppendJSON to the MarshalIndent oracle on
// reports with arbitrary section lengths, integer fields at the
// extremes of their range, and platform and border-unit names that
// need escaping. The seeds give every section each length 0..4 with
// every field at each of 0, ±1 and the int64 extremes, and names with
// quotes, backslashes, each HTML-significant byte alone, control
// bytes, DEL, invalid UTF-8 and the line and paragraph separators.
func FuzzReportJSON(f *testing.F) {
	names := []string{
		"", "3-segment", "BU12", `a"b`, `a\b`, "<BU1>", "a>b", "R&D", "tab\there", "nl\n", "nul\x00", "us\x1f", "del\x7f",
		"bad\xffutf8\xc3", "sep\u2028par\u2029", "ünïcödé", "emoji 🚌",
	}
	for pick := range byte(5) {
		for n := range byte(5) {
			shape := []byte{n, n, n, n, n, pick}
			f.Add(names[(int(pick)+int(n))%len(names)], names[int(n)%len(names)], n%2 == 0, shape, int64(0), int64(0))
		}
	}
	for i, name := range names {
		f.Add(name, names[len(names)-1-i], i%2 == 1, []byte{1, 2, 3, 4, 1, 0, 1, 2, 3, 4, 5, 6}, int64(36), int64(-490386897))
	}
	f.Add("empty", "BU12", false, []byte{1, 3, 5, 7, 9}, int64(1), int64(2))
	f.Fuzz(func(t *testing.T, platform, name string, refined bool, shape []byte, a, b int64) {
		checkAppendJSON(t, fuzzReport(platform, name, refined, shape, a, b))
	})
}

// TestAppendJSONMP3 holds the paper's main run to the oracle.
func TestAppendJSONMP3(t *testing.T) {
	r, err := Run(apps.MP3Model(), apps.MP3Platform3(36), Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkAppendJSON(t, r)
}

// BenchmarkReportJSON prices the MP3 report's encoding: the
// MarshalIndent oracle against AppendJSON into a reused buffer.
func BenchmarkReportJSON(b *testing.B) {
	r, err := Run(apps.MP3Model(), apps.MP3Platform3(36), Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := oracleJSON(r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = r.AppendJSON(buf[:0])
		}
	})
}
