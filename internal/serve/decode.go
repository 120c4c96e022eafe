package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"
	"unicode/utf8"
)

// Request decoding. An /estimate body is a small JSON envelope around
// two XML schemes of a few kilobytes each, and json.Marshal — what
// every client in this repository sends — escapes each '<', '>' and
// '&' of them as \u003c, \u003e or \u0026. encoding/json scans such a
// body byte by byte twice (once to find the value's end, once to
// unmarshal it), which made decoding the largest layer of a served
// request. DecodeEstimate reads the common envelope in one pass and
// hands anything else to encoding/json, which therefore stays the
// single authority on the accepted language, the decoded struct and
// every error text; the differential fuzz test holds the fast path to
// it.

// DecodeEstimate decodes one /estimate body into req exactly as
// json.NewDecoder(bytes.NewReader(body)).Decode does into a zero
// request: the same inputs succeed, with the same resulting req, and
// the rest fail with the same error. Unlike encoding/json it does not
// merge into what req held: fields absent from body end up zero.
//
// A single-pass reader accepts the envelope clients send: whitespace
// between tokens, each known key at most once and spelled exactly,
// strings with any JSON escape except surrogate halves, valid UTF-8,
// and plain in-range integers. For anything else — a case-variant,
// unknown or repeated key, null, a fraction or exponent, a leading
// zero, an overflow, a surrogate, invalid UTF-8, a raw control
// character, trailing bytes or a non-object body — encoding/json
// decodes the same bytes.
func DecodeEstimate(body []byte, req *EstimateRequest) error {
	if decodeFast(body, req) {
		return nil
	}
	*req = EstimateRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// scratchBufs pools the buffers request bodies are read into, escaped
// strings decoded into and reports encoded into. Buffers that grew
// past maxPooledBuf are dropped rather than pinned by the pool.
var scratchBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 64 << 10

// putScratchBuf returns buf to scratchBufs through its holder bp.
func putScratchBuf(bp *[]byte, buf []byte) {
	if cap(buf) <= maxPooledBuf {
		*bp = buf
		scratchBufs.Put(bp)
	}
}

// decodeBody reads r's body once through http.MaxBytesReader and
// decodes it into req, with the same outcome as decoding a
// json.Decoder over that reader: a body within the limit goes through
// DecodeEstimate; a read that failed (the limit, a broken connection)
// replays the bytes read before the failure and then the failure
// itself through encoding/json, which succeeds exactly when the first
// JSON value ends within those bytes.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, req *EstimateRequest) error {
	bp := scratchBufs.Get().(*[]byte)
	buf, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes),
		(*bp)[:0], min(r.ContentLength, s.cfg.MaxBodyBytes))
	if err == nil {
		err = DecodeEstimate(buf, req)
	} else {
		err = json.NewDecoder(io.MultiReader(bytes.NewReader(buf), errReader{err})).Decode(req)
	}
	// req holds copies, never views of buf: the buffer is free again.
	putScratchBuf(bp, buf)
	return err
}

// maxPresize caps the buffer readBody allocates before any byte
// arrives, so a request that merely claims a large Content-Length
// cannot make the server commit that much memory up front.
const maxPresize = 1 << 20

// readBody appends everything rd yields to buf and returns it with
// the error that ended the read, nil at EOF. size, when not negative,
// is the expected length; the buffer is sized once for it, up to
// maxPresize, and grows past that only as bytes arrive.
func readBody(rd io.Reader, buf []byte, size int64) ([]byte, error) {
	if size < 0 {
		size = 512
	}
	size = min(size, maxPresize)
	// One byte past the expected length lets the final read see EOF
	// without growing the buffer.
	if want := int(size) + 1; cap(buf) < want {
		buf = make([]byte, 0, want)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// errReader is a reader that only fails, with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// Bits of the fields decodeFast has read, for the at-most-once rule.
const (
	hasPSDF = 1 << iota
	hasPSM
	hasPackageSize
	hasPolicy
	hasDetectTicks
	hasOverheads
	hasGrant
	hasSync
	hasCASet
	hasCAReset
)

// decodeFast is DecodeEstimate's single-pass reader. It reports
// whether it read body, and writes req only when it did.
func decodeFast(body []byte, req *EstimateRequest) bool {
	scratch := scratchBufs.Get().(*[]byte)
	defer func() { putScratchBuf(scratch, *scratch) }()
	// No decoded string is longer than body: size the scratch once.
	if cap(*scratch) < len(body) {
		*scratch = make([]byte, 0, len(body))
	}
	var (
		d    EstimateRequest
		seen uint
	)
	first := func(bit uint) bool {
		ok := seen&bit == 0
		seen |= bit
		return ok
	}
	overhead := func(key []byte, i int) (int, bool) {
		var bit uint
		var v *int
		switch o := d.Overheads; string(key) {
		case "grant_ticks":
			bit, v = hasGrant, &o.GrantTicks
		case "sync_ticks":
			bit, v = hasSync, &o.SyncTicks
		case "ca_set_ticks":
			bit, v = hasCASet, &o.CASetTicks
		case "ca_reset_ticks":
			bit, v = hasCAReset, &o.CAResetTicks
		default:
			return i, false
		}
		if !first(bit) {
			return i, false
		}
		var ok bool
		*v, i, ok = readInt(body, i)
		return i, ok
	}
	field := func(key []byte, i int) (int, bool) {
		ok := false
		switch string(key) {
		case "psdf":
			if first(hasPSDF) {
				d.PSDF, i, ok = readString(body, i, scratch)
			}
		case "psm":
			if first(hasPSM) {
				d.PSM, i, ok = readString(body, i, scratch)
			}
		case "package_size":
			if first(hasPackageSize) {
				d.PackageSize, i, ok = readInt(body, i)
			}
		case "policy":
			if first(hasPolicy) {
				d.Policy, i, ok = readString(body, i, scratch)
			}
		case "detect_ticks":
			if first(hasDetectTicks) {
				d.DetectTicks, i, ok = readInt64(body, i)
			}
		case "overheads":
			if first(hasOverheads) {
				d.Overheads = new(OverheadsSpec)
				i, ok = readObject(body, i, overhead)
			}
		}
		return i, ok
	}
	i, ok := readObject(body, skipSpace(body, 0), field)
	if !ok || skipSpace(body, i) != len(body) {
		return false
	}
	*req = d
	return true
}

// readObject reads the object at body[i:], handing each key and the
// index of its value to member, which reads the value and returns the
// index after it.
func readObject(body []byte, i int, member func(key []byte, i int) (int, bool)) (int, bool) {
	if i == len(body) || body[i] != '{' {
		return i, false
	}
	if i = skipSpace(body, i+1); i < len(body) && body[i] == '}' {
		return i + 1, true
	}
	for {
		key, j, ok := readKey(body, i)
		if !ok {
			return j, false
		}
		if i, ok = member(key, j); !ok {
			return i, false
		}
		if i = skipSpace(body, i); i == len(body) {
			return i, false
		}
		switch body[i] {
		case '}':
			return i + 1, true
		case ',':
			i = skipSpace(body, i+1)
		default:
			return i, false
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte of
// body at or after i.
func skipSpace(body []byte, i int) int {
	for i < len(body) {
		switch body[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// readKey reads an object key and its colon at body[i:], returning
// the key's raw bytes and the index of its value. The raw bytes are
// only compared against the envelope's field names, none of which
// needs escaping: a key holding an escape matches none of them and so
// is left to encoding/json.
func readKey(body []byte, i int) ([]byte, int, bool) {
	if i == len(body) || body[i] != '"' {
		return nil, i, false
	}
	n := bytes.IndexByte(body[i+1:], '"')
	if n < 0 {
		return nil, i, false
	}
	key := body[i+1 : i+1+n]
	i = skipSpace(body, i+n+2)
	if i == len(body) || body[i] != ':' {
		return nil, i, false
	}
	return key, skipSpace(body, i+1), true
}

// plain marks the bytes a JSON string holds verbatim without further
// checks: printable ASCII other than '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// hexVal maps a hex digit to its value and every other byte to -1.
var hexVal = func() (t [256]int8) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = int8(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = int8(c - 'a' + 10)
		case 'A' <= c && c <= 'F':
			t[c] = int8(c - 'A' + 10)
		default:
			t[c] = -1
		}
	}
	return t
}()

// unescaped maps the byte after a backslash to the byte the escape
// stands for, and every byte that does not form a one-byte escape to
// zero.
var unescaped = [256]byte{
	'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

// readString reads the string at body[i:] in one pass, copying as it
// goes: a string without escapes is then read out of body; any other
// is decoded into *scratch, which keeps its capacity for the next
// string. The loop tests each byte against the plain table only; the
// escapes json.Marshal writes for '<', '>' and '&' take a shortcut.
func readString(body []byte, i int, scratch *[]byte) (string, int, bool) {
	if i == len(body) || body[i] != '"' {
		return "", i, false
	}
	i++
	start := i
	// Every escape is at least as long as what it decodes to, so the
	// output never overtakes the input and fits in len(body) bytes.
	out := (*scratch)[:len(body)]
	w := 0
	for i < len(body) {
		c := body[i]
		if plain[c] {
			out[w] = c
			i, w = i+1, w+1
			continue
		}
		switch {
		case c == '"':
			if w == i-start {
				return string(body[start:i]), i + 1, true
			}
			return string(out[:w]), i + 1, true
		case c == '\\':
			if i+1 == len(body) {
				return "", i, false
			}
			if e := unescaped[body[i+1]]; e != 0 {
				out[w] = e
				i, w = i+2, w+1
				continue
			}
			if body[i+1] != 'u' || i+6 > len(body) {
				return "", i, false
			}
			if body[i+2] == '0' && body[i+3] == '0' {
				// \u00XX with XX below 0x80: one ASCII byte.
				if h, l := hexVal[body[i+4]], hexVal[body[i+5]]; h|l >= 0 && h < 8 {
					out[w] = byte(h<<4 | l)
					i, w = i+6, w+1
					continue
				}
			}
			h0, h1, h2, h3 := hexVal[body[i+2]], hexVal[body[i+3]], hexVal[body[i+4]], hexVal[body[i+5]]
			r := rune(h0)<<12 | rune(h1)<<8 | rune(h2)<<4 | rune(h3)
			// Surrogate halves are left to encoding/json, which
			// pairs or replaces them.
			if h0|h1|h2|h3 < 0 || 0xD800 <= r && r < 0xE000 {
				return "", i, false
			}
			w += utf8.EncodeRune(out[w:], r)
			i += 6
		case c < ' ':
			return "", i, false
		default:
			r, size := utf8.DecodeRune(body[i:])
			if r == utf8.RuneError && size == 1 {
				return "", i, false
			}
			w += copy(out[w:], body[i:i+size])
			i += size
		}
	}
	return "", i, false
}

// readInt64 reads a plain integer at body[i:]: an optional minus sign
// and at most 19 digits without a leading zero, in int64 range.
// Whatever follows the digits is the caller's to check, so "1.5" and
// "1e3" fail there.
func readInt64(body []byte, i int) (int64, int, bool) {
	neg := i < len(body) && body[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for i < len(body) && isDigit(body[i]) && i-start < 19 {
		u = u*10 + uint64(body[i]-'0')
		i++
	}
	switch {
	case i == start, i < len(body) && isDigit(body[i]), body[start] == '0' && i-start > 1:
		return 0, i, false
	case neg && u <= 1<<63:
		return int64(-u), i, true
	case !neg && u <= math.MaxInt64:
		return int64(u), i, true
	}
	return 0, i, false
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// readInt is readInt64 for an int field.
func readInt(body []byte, i int) (int, int, bool) {
	v, i, ok := readInt64(body, i)
	return int(v), i, ok && v >= math.MinInt && v <= math.MaxInt
}
