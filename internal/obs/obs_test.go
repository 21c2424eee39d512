package obs

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	r.Add("a", 2)
	r.Add("a", 3)
	r.Set("g", 7)
	r.Set("g", 4)
	if got := r.Counter("a").Load(); got != 5 {
		t.Errorf("counter a = %d, want 5", got)
	}
	if got := r.Gauge("g").Load(); got != 4 {
		t.Errorf("gauge g = %d, want 4", got)
	}
}

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1<<20 - 1, 20}, {1 << 20, 21}, {1<<62 + 1, 63},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
		// Every value must not exceed its bucket's inclusive bound, and
		// must exceed the previous bucket's bound.
		if c.v > BucketBound(c.want) {
			t.Errorf("value %d exceeds bound %d of its bucket %d", c.v, BucketBound(c.want), c.want)
		}
		if c.want > 0 && c.v <= BucketBound(c.want-1) {
			t.Errorf("value %d fits bucket %d, placed in %d", c.v, c.want-1, c.want)
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	for _, v := range []int64{1, 1, 3, 100, 0} {
		r.Observe("h", v)
	}
	m := r.Snapshot()
	h, ok := m.Histograms["h"]
	if !ok {
		t.Fatal("histogram h missing from snapshot")
	}
	if h.Count != 5 || h.Sum != 105 {
		t.Errorf("count/sum = %d/%d, want 5/105", h.Count, h.Sum)
	}
	// Buckets: v=0 -> Le 0; 1,1 -> Le 1; 3 -> Le 3; 100 -> Le 127.
	want := []Bucket{{Le: 0, Count: 1}, {Le: 1, Count: 2}, {Le: 3, Count: 1}, {Le: 127, Count: 1}}
	if !reflect.DeepEqual(h.Buckets, want) {
		t.Errorf("buckets = %+v, want %+v", h.Buckets, want)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("events", 1)
				r.Set("last", int64(w))
				r.Observe("lat_ns", int64(i))
			}
		}(w)
	}
	wg.Wait()
	m := r.Snapshot()
	if m.Counters["events"] != 8000 {
		t.Errorf("events = %d, want 8000", m.Counters["events"])
	}
	if h := m.Histograms["lat_ns"]; h.Count != 8000 {
		t.Errorf("lat_ns count = %d, want 8000", h.Count)
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		for i := 0; i < 50; i++ {
			r.Add(fmt.Sprintf("c%d", i%7), int64(i))
			r.Set(fmt.Sprintf("g%d", i%5), int64(i))
			r.Observe(fmt.Sprintf("h%d", i%3), int64(i*i))
		}
		return r
	}
	j1, err := build().Snapshot().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := build().Snapshot().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Errorf("snapshots of identical recording differ:\n%s\n%s", j1, j2)
	}
}

func TestTee(t *testing.T) {
	if Tee(nil, nil) != nil {
		t.Error("Tee(nil, nil) is not the nil Recorder")
	}
	a, b := NewRegistry(), NewRegistry()
	if Tee(a, nil) != Recorder(a) || Tee(nil, b) != Recorder(b) {
		t.Error("Tee with one nil side does not return the other side")
	}
	rec := Tee(a, b)
	rec.Add("c", 2)
	rec.Set("g", 5)
	rec.Observe("h", 9)
	for name, r := range map[string]*Registry{"a": a, "b": b} {
		if r.Counter("c").Load() != 2 || r.Gauge("g").Load() != 5 || r.Histogram("h").Sum() != 9 {
			t.Errorf("%s did not receive every event: %+v", name, r.Snapshot())
		}
	}
}
