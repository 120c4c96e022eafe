package schema

import (
	"bytes"
	"reflect"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/m2t"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// FuzzParsePSDF feeds arbitrary bytes to the scheme parser: it must
// never panic, anything it accepts must be a valid model, and it must
// read every input as the decoder alone does.
func FuzzParsePSDF(f *testing.F) {
	if data, err := m2t.GeneratePSDF(apps.MP3Model()); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`<xs:schema xmlns:xs="x"><xs:element name="a" type="App"/></xs:schema>`))
	f.Add([]byte(``))
	f.Add([]byte(`<<<>>>`))
	f.Add([]byte(`<xs:schema xmlns:xs="x"><xs:annotation><xs:appinfo>nominalPackageSize=36</xs:appinfo></xs:annotation></xs:schema>`))
	if data, err := m2t.GeneratePSDF(apps.MP3Model()); err == nil {
		for _, seed := range oracleSeeds(data) {
			f.Add(seed.doc)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOracle(t, data)
		m, err := ParsePSDF(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted an invalid model: %v", err)
		}
	})
}

// FuzzParsePSM likewise for platform schemes.
func FuzzParsePSM(f *testing.F) {
	if data, err := m2t.GeneratePSM(apps.MP3Platform3(36)); err == nil {
		f.Add(data)
	}
	if data, err := m2t.GeneratePSM(apps.MP3Platform1(18)); err == nil {
		f.Add(data)
	}
	f.Add([]byte(``))
	f.Add([]byte(`<xs:schema xmlns:xs="x"><xs:element name="sbp" type="SBP"/></xs:schema>`))
	if data, err := m2t.GeneratePSM(apps.MP3Platform3(36)); err == nil {
		for _, seed := range oracleSeeds(data) {
			f.Add(seed.doc)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOracle(t, data)
		p, err := ParsePSM(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted an invalid platform: %v", err)
		}
	})
}

// oracleSeed is a document exercising one decoder behaviour, and
// whether the scanner reads it or leaves it to the decoder.
type oracleSeed struct {
	name    string
	doc     []byte
	scanned bool
}

// oracleSeeds derives from a generated scheme one document per
// decoder behaviour the scanner must either match or leave to the
// decoder.
func oracleSeeds(doc []byte) []oracleSeed {
	first := func(old, new string) []byte {
		return bytes.Replace(doc, []byte(old), []byte(new), 1)
	}
	all := func(old, new string) []byte {
		return bytes.ReplaceAll(doc, []byte(old), []byte(new))
	}
	end := bytes.LastIndex(doc, []byte("</xs:complexType>"))
	return []oracleSeed{
		{"root name unchecked", all("xs:schema", "xs:notaschema"), true},
		{"bytes after the root", append(append([]byte(nil), doc...), "\r\x00<<</garbage> &bogus; \xff"...), true},
		{"undeclared prefix", bytes.ReplaceAll(all("xs:", "q:"), []byte(` xmlns:q="http://www.w3.org/2001/XMLSchema"`), nil), true},
		{"last attribute wins", first(`<xs:element `, `<xs:element name="first" type="First" `), true},
		{"unknown elements skipped", first(`</xs:all>`, `<xs:sequence><xs:element name="x" type="Y"/></xs:sequence><xs:any/></xs:all>`), true},
		{"appinfo text joined", first(`<xs:appinfo>`, `<xs:appinfo> <!-- head --> `), true},
		{"appinfo child skipped", first(`<xs:appinfo>`, `<xs:appinfo><b>skipped</b>`), false},
		{"line endings normalised", all("\n", "\r\n"), false},
		{"predefined entities", first(`name="`, `name="&lt;&amp;&gt;&apos;&quot;`), true},
		{"character references", first(`name="`, `name="&#65;&#x42;`), false},
		{"CDATA", first(`<xs:appinfo>`, `<xs:appinfo><![CDATA[ ]]>`), false},
		{"DOCTYPE", first("?>\n", "?>\n<!DOCTYPE schema>\n"), false},
		{"non-UTF-8 encoding", first(`encoding="UTF-8"`, `encoding="ISO-8859-1"`), false},
		{"invalid UTF-8", first(`name="`, "name=\"\xff"), false},
		{"mismatched end tag", append(append(doc[:end:end], "</xs:complexTypo>"...), doc[end+len("</xs:complexType>"):]...), false},
		{`"]]>" in text`, first(`<xs:element `, `]]><xs:element `), false},
		{"re-encoded", bytes.ReplaceAll(first("?>\n", "?>\n<!-- request 1 -->\n"), []byte("  "), []byte("\t")), true},
	}
}

// TestOracleSeeds pins which seeds the scanner reads itself.
func TestOracleSeeds(t *testing.T) {
	psdfDoc, err := m2t.GeneratePSDF(apps.MP3Model())
	if err != nil {
		t.Fatal(err)
	}
	psmDoc, err := m2t.GeneratePSM(apps.MP3Platform3(36))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range [][]byte{psdfDoc, psmDoc} {
		for _, s := range oracleSeeds(doc) {
			if bytes.Equal(s.doc, doc) {
				t.Errorf("%s: seed does not differ from the scheme", s.name)
			}
			if got := checkOracle(t, s.doc); got != s.scanned {
				t.Errorf("%s: scanned = %v, want %v", s.name, got, s.scanned)
			}
		}
	}
}

// checkOracle parses data through parseSchema and through the decoder
// alone, and fails t unless both read it the same: when the scanner
// accepts data its xsSchema must deep-equal the decoder's, and
// ParsePSDF and ParsePSM must return the decoder path's model or
// platform, or the same error text. It reports whether the scanner
// accepted data.
func checkOracle(t testing.TB, data []byte) bool {
	t.Helper()
	decoded, decodeErr := decodeSchema(string(data))
	scanned, ok := scanSchema(string(data))
	if ok {
		if decodeErr != nil {
			t.Fatalf("scanner accepted a document the decoder refuses: %v", decodeErr)
		}
		if !reflect.DeepEqual(scanned, decoded) {
			t.Fatalf("scanner read\n%+v\ndecoder read\n%+v", scanned, decoded)
		}
	}

	m, err := ParsePSDF(data)
	var want *psdf.Model
	wantErr := decodeErr
	if decodeErr == nil {
		want, wantErr = psdfFrom(decoded)
	}
	sameResult(t, "ParsePSDF", m, err, want, wantErr)

	p, err := ParsePSM(data)
	var wantP *platform.Platform
	wantErr = decodeErr
	if decodeErr == nil {
		wantP, wantErr = psmFrom(decoded)
	}
	sameResult(t, "ParsePSM", p, err, wantP, wantErr)
	return ok
}

func sameResult[T any](t testing.TB, what string, got T, err error, want T, wantErr error) {
	t.Helper()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s: error %v, decoder path %v", what, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s: error %q, decoder path %q", what, err, wantErr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s: %+v, decoder path %+v", what, got, want)
	}
}
