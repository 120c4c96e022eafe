package schema

import (
	"strings"
	"unicode/utf8"
)

// xmlDecl is the only XML declaration the scanner accepts, and only as
// the first bytes of the document: the one m2t writes.
const xmlDecl = `<?xml version="1.0" encoding="UTF-8"?>`

// scanSchema is the single-pass parser for the m2t dialect. It fills
// the xsSchema encoding/xml's Decode would, and reports false for any
// input outside the dialect so that the caller falls back to the
// decoder. The dialect is well-formed XML restricted to:
//
//   - an optional leading xmlDecl, then comments, whitespace and text;
//   - element and attribute names in ASCII with at most one inner
//     colon, under any prefix, declared or not;
//   - attribute values in either quote;
//   - the five predefined entities, in text and attribute values;
//   - text and attribute values free of "]]>", of '\r' and of the other
//     control characters but tab and newline;
//   - appinfo elements holding text and comments only.
//
// Everything else — DOCTYPE, CDATA, processing instructions, character
// references, child elements of appinfo, malformed markup — is left to
// the decoder. Inside the dialect the scanner maps elements to fields
// as the decoder does: by local name, without checking the root's
// name, skipping unknown elements whole, letting a repeated
// attribute's last value win and not reading past the root's end tag.
func scanSchema(doc string) (*xsSchema, bool) {
	sc := scanner{src: doc}
	sc.open = sc.stack[:0]
	if strings.HasPrefix(sc.src, xmlDecl) {
		sc.pos = len(xmlDecl)
	}
	tok := sc.next()
	for tok == tokText {
		tok = sc.next()
	}
	if tok != tokStart {
		return nil, false
	}
	// m2t writes about one element per 64 bytes and one complex type
	// per 128: the slices rarely grow.
	sc.elements = make([]xsElement, 0, len(doc)/64+8)
	sc.infos = make([]string, 0, 8)
	var s xsSchema
	s.ComplexTypes = make([]xsComplexType, 0, len(doc)/128+4)
	if !sc.root(&s) {
		return nil, false
	}
	if len(s.ComplexTypes) == 0 {
		s.ComplexTypes = nil // as the decoder leaves it
	}
	return &s, true
}

// token is what scanner.next read.
type token int

const (
	tokBad   token = iota // outside the dialect, or the input ended early
	tokStart              // a start tag; see scanner.local, .name, .typ
	tokEnd                // the end of the element opened last
	tokText               // character data; see scanner.text
)

// scanner tokenizes one document. It works on a string copy of the
// input so that attribute values and text are substrings of it rather
// than allocations of their own.
type scanner struct {
	src string
	pos int

	open     []string  // qualified names of the open elements
	stack    [8]string // open's initial backing array
	closeTag bool      // the last start tag was empty: next yields its end
	local    string    // the last start tag's local name
	name     string    // its last name attribute, unescaped
	typ      string    // its last type attribute, unescaped
	text     string    // the last text token, still escaped

	// The members of every all group and the texts of every
	// annotation, in document order: a complex type's Elements and
	// AppInfos are windows onto these, so the document's groups share
	// a few allocations instead of taking one each.
	elements []xsElement
	infos    []string
}

// next reads the next start tag, end tag or text. Comments are
// consumed silently; an end tag must close the element opened last.
func (sc *scanner) next() token {
	if sc.closeTag {
		sc.closeTag = false
		sc.open = sc.open[:len(sc.open)-1]
		return tokEnd
	}
	for sc.pos < len(sc.src) {
		rest := sc.src[sc.pos:]
		if rest[0] != '<' {
			// Text between tags is mostly indentation: whitespace up
			// to the next '<' needs no further check.
			end := 0
			for end < len(rest) && isSpace(rest[end]) {
				end++
			}
			if end == len(rest) || rest[end] != '<' {
				if end = strings.IndexByte(rest, '<'); end < 0 {
					end = len(rest)
				}
				if _, ok := chars(rest[:end]); !ok {
					return tokBad
				}
			}
			sc.text = rest[:end]
			sc.pos += end
			return tokText
		}
		switch {
		case strings.HasPrefix(rest, "<!--"):
			// The decoder ends a comment at its first "--", which must
			// be followed by '>'. It does not check the characters.
			end := strings.Index(rest[4:], "--")
			if end < 0 || !strings.HasPrefix(rest[4+end:], "-->") {
				return tokBad
			}
			sc.pos += 4 + end + 3
		case strings.HasPrefix(rest, "</"):
			// The name must be the open element's, followed only by
			// whitespace and '>'.
			if len(sc.open) == 0 || !strings.HasPrefix(rest[2:], sc.open[len(sc.open)-1]) {
				return tokBad
			}
			sc.pos += 2 + len(sc.open[len(sc.open)-1])
			sc.skipSpace()
			if !sc.consume('>') {
				return tokBad
			}
			sc.open = sc.open[:len(sc.open)-1]
			return tokEnd
		default:
			sc.pos++
			return sc.startTag()
		}
	}
	return tokBad
}

// startTag reads a start tag after its '<'.
func (sc *scanner) startTag() token {
	qname, local, ok := sc.qname()
	if !ok {
		return tokBad
	}
	sc.local, sc.name, sc.typ = local, "", ""
	for {
		sc.skipSpace()
		if sc.consume('>') {
			break
		}
		if sc.consume('/') {
			if !sc.consume('>') {
				return tokBad
			}
			sc.closeTag = true
			break
		}
		_, attr, ok := sc.qname()
		if !ok {
			return tokBad
		}
		sc.skipSpace()
		if !sc.consume('=') {
			return tokBad
		}
		sc.skipSpace()
		v, ok := sc.attrValue()
		if !ok {
			return tokBad
		}
		switch attr {
		case "name":
			sc.name = v
		case "type":
			sc.typ = v
		}
	}
	sc.open = append(sc.open, qname)
	return tokStart
}

// Classes of ASCII bytes in names: nameStart may begin a name,
// nameRest only continue one, and nameColon separates a prefix.
const (
	nameStart = 1 + iota
	nameRest
	nameColon
)

var nameChar = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = nameStart, nameStart
	}
	t['_'] = nameStart
	for c := '0'; c <= '9'; c++ {
		t[c] = nameRest
	}
	t['.'], t['-'] = nameRest, nameRest
	t[':'] = nameColon
	return t
}()

// qname reads an XML name and splits off its local part. Names the
// decoder would read differently — a leading, trailing or second
// colon, a non-ASCII character — are refused.
func (sc *scanner) qname() (qname, local string, ok bool) {
	s, start := sc.src, sc.pos
	if start == len(s) || nameChar[s[start]] != nameStart {
		return "", "", false
	}
	i, colon := start+1, -1
	for ; i < len(s); i++ {
		switch nameChar[s[i]] {
		case nameStart, nameRest:
			continue
		case nameColon:
			if colon >= 0 {
				return "", "", false
			}
			colon = i
			continue
		}
		break
	}
	sc.pos = i
	if colon == i-1 {
		return "", "", false
	}
	qname, local = s[start:i], s[start:i]
	if colon >= 0 {
		local = s[colon+1 : i]
	}
	return qname, local, true
}

// attrValue reads a quoted attribute value and unescapes it.
func (sc *scanner) attrValue() (string, bool) {
	if sc.pos >= len(sc.src) {
		return "", false
	}
	q := sc.src[sc.pos]
	if q != '"' && q != '\'' {
		return "", false
	}
	rest := sc.src[sc.pos+1:]
	end := strings.IndexByte(rest, q)
	if end < 0 {
		return "", false
	}
	v := rest[:end]
	sc.pos += 1 + end + 1
	escaped, ok := chars(v)
	if !ok {
		return "", false
	}
	if escaped {
		v = unescape(v)
	}
	return v, true
}

func (sc *scanner) skipSpace() {
	for sc.pos < len(sc.src) && isSpace(sc.src[sc.pos]) {
		sc.pos++
	}
}

// isSpace reports whether c is whitespace the dialect allows between
// markup: '\r' is not, as line endings would need normalising.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' }

func (sc *scanner) consume(c byte) bool {
	if sc.pos < len(sc.src) && sc.src[sc.pos] == c {
		sc.pos++
		return true
	}
	return false
}

// root reads the content of the document element.
func (sc *scanner) root(s *xsSchema) bool {
	for {
		switch sc.next() {
		case tokEnd:
			return true
		case tokText:
		case tokStart:
			ok := true
			switch sc.local {
			case "annotation":
				ok = sc.appInfos(&s.AppInfos)
			case "element":
				s.Elements = append(s.Elements, xsElement{Name: sc.name, Type: sc.typ})
				ok = sc.skip()
			case "complexType":
				ct := xsComplexType{Name: sc.name}
				ok = sc.complexType(&ct)
				s.ComplexTypes = append(s.ComplexTypes, ct)
			default:
				ok = sc.skip()
			}
			if !ok {
				return false
			}
		default:
			return false
		}
	}
}

// complexType reads a complexType's content.
func (sc *scanner) complexType(ct *xsComplexType) bool {
	for {
		switch sc.next() {
		case tokEnd:
			return true
		case tokText:
		case tokStart:
			ok := true
			switch sc.local {
			case "annotation":
				ok = sc.appInfos(&ct.AppInfos)
			case "all":
				ok = sc.all(&ct.Elements)
			default:
				ok = sc.skip()
			}
			if !ok {
				return false
			}
		default:
			return false
		}
	}
}

// all reads the element members of an all group into the element
// arena and appends them to dst.
func (sc *scanner) all(dst *[]xsElement) bool {
	begin := len(sc.elements)
	for {
		switch sc.next() {
		case tokEnd:
			*dst = window(*dst, sc.elements, begin)
			return true
		case tokText:
		case tokStart:
			if sc.local == "element" {
				sc.elements = append(sc.elements, xsElement{Name: sc.name, Type: sc.typ})
			}
			if !sc.skip() {
				return false
			}
		default:
			return false
		}
	}
}

// window appends arena[begin:] to dst: when dst is empty, as it is but
// for a type's second group, it becomes a window onto the arena,
// capped so that an append to either never overwrites the other. An
// empty addition leaves dst as it was, nil included, as the decoder
// does.
func window[T any](dst, arena []T, begin int) []T {
	switch {
	case begin == len(arena):
		return dst
	case len(dst) == 0:
		return arena[begin:len(arena):len(arena)]
	}
	return append(dst, arena[begin:]...)
}

// appInfos reads an annotation's appinfo texts into the text arena
// and appends them to dst.
func (sc *scanner) appInfos(dst *[]string) bool {
	begin := len(sc.infos)
	for {
		switch sc.next() {
		case tokEnd:
			*dst = window(*dst, sc.infos, begin)
			return true
		case tokText:
		case tokStart:
			if sc.local != "appinfo" {
				if !sc.skip() {
					return false
				}
				continue
			}
			text, ok := sc.appInfo()
			if !ok {
				return false
			}
			sc.infos = append(sc.infos, text)
		default:
			return false
		}
	}
}

// appInfo reads an appinfo's text: its text tokens joined, the
// comments between them dropped. A child element is not the scanner's.
func (sc *scanner) appInfo() (string, bool) {
	// Each text token holds whole entities only, so joining the raw
	// tokens before unescaping is the same as joining them after.
	var raw string
	for {
		switch sc.next() {
		case tokEnd:
			return unescape(raw), true
		case tokText:
			raw += sc.text
		default:
			return "", false
		}
	}
}

// skip reads the rest of an element whose content is ignored.
func (sc *scanner) skip() bool {
	for depth := 0; ; {
		switch sc.next() {
		case tokStart:
			depth++
		case tokEnd:
			if depth == 0 {
				return true
			}
			depth--
		case tokText:
		default:
			return false
		}
	}
}

// chars checks text or an attribute value, its delimiter excluded. It
// accepts the characters the decoder does there, less '\r' and the
// other control characters but tab and newline (so that no line ending
// needs normalising), with '&' only as a predefined entity and without
// "]]>", which the decoder refuses in text. escaped reports whether s
// holds an entity.
func chars(s string) (escaped, ok bool) {
	for i := 0; i < len(s); {
		// Most bytes need no check beyond their class.
		for i < len(s) && charClass[s[i]] == charPlain {
			i++
		}
		if i == len(s) {
			break
		}
		switch c := s[i]; charClass[c] {
		case charMulti:
			r, n := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && n == 1 || r == 0xFFFE || r == 0xFFFF {
				return false, false
			}
			i += n
		case charAmp:
			n := entityLen(s[i:])
			if n == 0 {
				return false, false
			}
			escaped = true
			i += n
		case charGT:
			if i >= 2 && s[i-2:i] == "]]" {
				return false, false
			}
			i++
		default:
			return false, false
		}
	}
	return escaped, true
}

// Classes of bytes in text and attribute values, for chars.
const (
	charPlain = iota // accepted as is
	charBad          // '<' and the control characters but tab and newline
	charMulti        // the first byte of a multi-byte UTF-8 sequence, or none
	charAmp          // '&', which must start a predefined entity
	charGT           // '>', refused after "]]"
)

var charClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = charMulti
		case c < ' ' && c != '\t' && c != '\n', c == '<':
			t[c] = charBad
		case c == '&':
			t[c] = charAmp
		case c == '>':
			t[c] = charGT
		}
	}
	return t
}()

// predefined maps each of the five predefined entities to its text.
var predefined = [...]struct{ ref, text string }{
	{"&lt;", "<"}, {"&gt;", ">"}, {"&amp;", "&"}, {"&apos;", "'"}, {"&quot;", `"`},
}

// entityLen returns the length of the predefined entity s starts
// with, or 0.
func entityLen(s string) int {
	for _, e := range predefined {
		if strings.HasPrefix(s, e.ref) {
			return len(e.ref)
		}
	}
	return 0
}

// unescape replaces the predefined entities of s, which chars
// accepted.
func unescape(s string) string {
	i := strings.IndexByte(s, '&')
	if i < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i >= 0 {
		b.WriteString(s[:i])
		s = s[i:]
		for _, e := range predefined {
			if strings.HasPrefix(s, e.ref) {
				b.WriteString(e.text)
				s = s[len(e.ref):]
				break
			}
		}
		i = strings.IndexByte(s, '&')
	}
	b.WriteString(s)
	return b.String()
}
