package session

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// Session scripts are untrusted files (semisolve -session replays
// arbitrary paths); fuzzing asserts that ReadScript never panics and that
// anything it accepts survives a WriteScript/ReadScript round trip with
// an equal header and equal events.

func FuzzReadScript(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteScript(&buf, ScriptHeader{Procs: 3, Multi: true, Lambda: 0.5, NodeBudget: 1000},
		GenerateScript(ScriptOptions{Seed: 1, Events: 6, Procs: 3, Multi: true})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"procs":2}` + "\n\n" + `{"op":"arrive","task":{"id":"t1","configs":[{"procs":[0],"weight":4}]}}` + "\r\n" +
		`{"op":"depart","id":"t1"}` + "\n")
	f.Add(`{"procs":1,"lambda":1e-300,"compare_cold":true}` + "\n" + `{"op":"reweigh","id":"té","weight":-3}`)
	f.Add(`{"procs":1}` + "\n" + `{"op":"arrive","task":{"configs":[]}}` + "\n" + `null` + "\n" + `{"task":null}`)
	f.Add(`{"procs":0}`)
	f.Add(`{"procs":1}` + "\n" + `{"op":"arrive"} trailing`)
	f.Add("\n\n")
	f.Add(`{"procs":1}` + "\n" + "{\"id\":\"\xff\xfe\"}")
	f.Fuzz(func(t *testing.T, src string) {
		hdr, events, err := ReadScript(strings.NewReader(src))
		if err != nil {
			return
		}
		if hdr.Procs <= 0 {
			t.Fatalf("accepted a header with procs %d", hdr.Procs)
		}
		var out bytes.Buffer
		if err := WriteScript(&out, hdr, events); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		hdr2, events2, err := ReadScript(&out)
		if err != nil {
			t.Fatalf("round trip parse failed: %v\n%s", err, out.String())
		}
		if hdr2 != hdr {
			t.Fatalf("header %+v round-tripped to %+v", hdr, hdr2)
		}
		if !reflect.DeepEqual(events, events2) {
			t.Fatalf("events %+v round-tripped to %+v", events, events2)
		}
	})
}
