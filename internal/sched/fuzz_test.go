package sched

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// The JSON instance parser consumes untrusted input (semiserve request
// bodies, files semisolve reads); mirroring internal/encode's fuzz tests, assert that it
// never panics and that anything it accepts survives a write/read round
// trip unchanged.

func FuzzReadInstanceJSON(f *testing.F) {
	f.Add(`{"processors":["a","b"],"tasks":[{"name":"t","configs":[{"procs":[0],"time":3}]}]}`)
	f.Add(`{"processors":["cpu0","cpu1","gpu"],"tasks":[
		{"name":"render","configs":[{"procs":[0],"time":8},{"procs":[0,2],"time":3}]},
		{"name":"encode","configs":[{"procs":[1],"time":6}]}]}`)
	f.Add(`{"processors":["p"],"tasks":[]}`)
	f.Add(`{"processors":[],"tasks":[]}`)
	f.Add(`{"processors":["p"],"tasks":[{"name":"t","configs":[]}]}`)
	f.Add(`{"processors":["p"],"tasks":[{"name":"t","configs":[{"procs":[1],"time":1}]}]}`)
	f.Add(`{"processors":["p"],"tasks":[{"name":"t","configs":[{"procs":[0],"time":0}]}]}`)
	f.Add(`{"processors":["p"],"tasks":[{"name":"t","configs":[{"procs":[0,0],"time":1}]}]}`)
	f.Add(`{"processors":["p"],"unknown":1}`)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, src string) {
		in, err := ReadInstanceJSON(strings.NewReader(src))
		if err != nil {
			return
		}
		// Everything the parser accepts must convert to a hypergraph (its
		// own validation promise) ...
		if _, err := in.Hypergraph(); err != nil {
			t.Fatalf("accepted instance fails hypergraph conversion: %v", err)
		}
		// ... and survive a write/read round trip unchanged.
		var buf bytes.Buffer
		if err := in.WriteJSON(&buf); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		in2, err := ReadInstanceJSON(&buf)
		if err != nil {
			t.Fatalf("round trip parse failed: %v", err)
		}
		if !reflect.DeepEqual(in.ProcNames, in2.ProcNames) || !reflect.DeepEqual(in.Tasks, in2.Tasks) {
			t.Fatalf("round trip changed the instance:\n  %#v\nvs\n  %#v", in, in2)
		}
	})
}
