package trace

import (
	"strings"
	"testing"
)

func TestParseJSONL(t *testing.T) {
	in := `{"pc":"0x400100","addr":"0x7f2a1040","op":"R","nonmem":3}

{"pc":4194564,"addr":1090,"op":"w"}
{"pc":"12","addr":"0x40","op":"STORE","nonmem":70000}`
	// The last line is out of range; parse the valid prefix first.
	recs, err := ParseJSONL(strings.NewReader(strings.Join(strings.Split(in, "\n")[:3], "\n")))
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{PC: 0x400100, Addr: 0x7f2a1040, IsWrite: false, NonMem: 3},
		{PC: 4194564, Addr: 1090, IsWrite: true, NonMem: 0},
	}
	if len(recs) != len(want) {
		t.Fatalf("parsed %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d: %+v, want %+v", i, recs[i], want[i])
		}
	}
}

func TestParseJSONLStrictErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"unknown field", `{"pc":1,"addr":2,"op":"R","extra":1}`},
		{"missing pc", `{"addr":2,"op":"R"}`},
		{"missing addr", `{"pc":1,"op":"R"}`},
		{"missing op", `{"pc":1,"addr":2}`},
		{"bad op", `{"pc":1,"addr":2,"op":"X"}`},
		{"bad hex", `{"pc":"0xzz","addr":2,"op":"R"}`},
		{"negative", `{"pc":-1,"addr":2,"op":"R"}`},
		{"float", `{"pc":1.5,"addr":2,"op":"R"}`},
		{"nonmem range", `{"pc":1,"addr":2,"op":"R","nonmem":65536}`},
		{"trailing garbage", `{"pc":1,"addr":2,"op":"R"} {"pc":3,"addr":4,"op":"W"}`},
		{"not an object", `[1,2,3]`},
		{"bare text", `hello`},
	}
	for _, tc := range cases {
		if _, err := ParseJSONL(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: parsed without error", tc.name)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: error lacks line number: %v", tc.name, err)
		}
	}
}

func TestIngestDispatch(t *testing.T) {
	csv := "# comment\n0x400100,0x1040,R,2\n"
	jsonl := `{"pc":"0x400100","addr":"0x1040","op":"R","nonmem":2}` + "\n"
	want := Record{PC: 0x400100, Addr: 0x1040, NonMem: 2}

	for _, tc := range []struct {
		name string
		data string
		f    Format
	}{
		{"t.csv", csv, FormatAuto},
		{"t.jsonl", jsonl, FormatAuto},
		{"noext", csv, FormatAuto},   // sniffed: not '{' → CSV
		{"noext", jsonl, FormatAuto}, // sniffed: '{' → JSONL
		{"t.txt", csv, FormatCSV},
		{"t.txt", jsonl, FormatJSONL},
	} {
		recs, err := Ingest(tc.name, []byte(tc.data), tc.f)
		if err != nil {
			t.Fatalf("%s (%v): %v", tc.name, tc.f, err)
		}
		if len(recs) != 1 || recs[0] != want {
			t.Fatalf("%s (%v): %+v", tc.name, tc.f, recs)
		}
	}

	// Zero records is an error, not an empty success.
	if _, err := Ingest("empty.csv", []byte("# nothing\n"), FormatAuto); err == nil {
		t.Fatal("empty ingest succeeded")
	}
	// Mismatched forced format is a strict parse error.
	if _, err := Ingest("t.csv", []byte(csv), FormatJSONL); err == nil {
		t.Fatal("CSV parsed as JSONL")
	}
}

func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{
		"auto": FormatAuto, "": FormatAuto,
		"csv": FormatCSV, "CSV": FormatCSV,
		"jsonl": FormatJSONL, "ndjson": FormatJSONL,
	} {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("bad format accepted")
	}
}
