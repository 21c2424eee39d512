package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

const us = time.Microsecond

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Start: 0, End: 100 * us},
		// Nested on the same goroutine: decode holds a read.
		{Name: "decode", ID: 2, Parent: 1, Start: 10 * us, End: 40 * us},
		{Name: "read", ID: 3, Parent: 2, Start: 15 * us, End: 25 * us},
		// Two children on other goroutines overlap each other: only
		// their union, 50..80, is covered.
		{Name: "map", ID: 4, Parent: 1, Start: 50 * us, End: 70 * us, TID: 2},
		{Name: "map", ID: 5, Parent: 1, Start: 60 * us, End: 80 * us, TID: 3},
		// A child outliving its parent covers only the part inside it.
		{Name: "flush", ID: 6, Parent: 1, Start: 90 * us, End: 130 * us, TID: 2},
		// A second request.
		{Name: "op", ID: 7, Start: 200 * us, End: 210 * us, Req: 1},
		{Name: "decode", ID: 8, Parent: 7, Start: 201 * us, End: 209 * us, Req: 1},
	}
	want := []time.Duration{100*us - 30*us - 30*us - 10*us, 20 * us, 10 * us, 20 * us, 20 * us, 40 * us, 2 * us, 8 * us}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s #%d) = %v, want %v", spans[i].Name, spans[i].ID, got[i], want[i])
		}
	}

	by := selfByRequest(spans, "op")
	if by["decode"][0] != 20*us || by["decode"][1] != 8*us || by["map"][0] != 40*us {
		t.Errorf("selfByRequest = %v", by)
	}
	if _, ok := by["op"]; ok {
		t.Error("selfByRequest must leave the roots out")
	}
	if len(selfByRequest(spans, "probe")) != 0 {
		t.Error("no spans sit under a probe root")
	}
}

func TestTracerNestsAndWritesChromeTrace(t *testing.T) {
	tr := newTracer()
	tr.request()
	root := tr.begin("op")
	tr.timed("decode", func() { tr.timed("read", func() {}) })
	// A span on another goroutine, under the replay's current span.
	parent := tr.current()
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr.endRemote(tr.beginRemote("handler", parent))
	}()
	<-done
	tr.end(root)
	if got := []int{tr.spans[1].Parent, tr.spans[2].Parent, tr.spans[3].Parent}; got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("parents = %v, want [1 2 1]", got)
	}
	if tr.spans[3].TID == tr.spans[0].TID {
		t.Error("the remote span must sit on its own lane")
	}
	for _, s := range tr.spans {
		if s.Req != 1 || s.End < s.Start {
			t.Errorf("span %+v", s)
		}
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 4 || doc.TraceEvents[2].Name != "read" || doc.TraceEvents[2].Ph != "X" || doc.TraceEvents[2].Args["parent"] != 2 {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
}
