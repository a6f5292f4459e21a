package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeReport(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The gate reads the hoisted fields cmd/benchjson writes; a benchmark
// recorded without allocs_per_op has none, whatever else it carries.
func TestLoadPrefersHoistedFields(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "a.json", `{"benchmarks":[
		{"name":"BenchmarkX","ns_per_op":1000,"allocs_per_op":89,"values":{"ns/op":999,"allocs/op":88}},
		{"name":"BenchmarkZ","ns_per_op":200,"values":{"allocs/op":7}}
	]}`)
	got, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m := got["BenchmarkX"]; m.ns != 1000 || !m.hasAllocs || m.allocs != 89 {
		t.Errorf("BenchmarkX = %+v, want hoisted ns 1000 / allocs 89", m)
	}
	if m := got["BenchmarkZ"]; m.ns != 200 || m.hasAllocs {
		t.Errorf("BenchmarkZ = %+v, want no allocs recorded", m)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "bad.json", "not json")
	if _, err := load(path); err == nil {
		t.Error("expected error for malformed JSON")
	}
	if _, err := load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("expected error for missing file")
	}
}

// The gate is on allocs/op alone: zero stays exactly zero, a non-zero
// baseline has maxAllocRegressPct of slack, and no ns/op swing fails it.
func TestCheckGatesAllocsOnly(t *testing.T) {
	for _, c := range []struct {
		base, fresh metrics
		ok          bool
	}{
		{metrics{ns: 100, allocs: 0}, metrics{ns: 900, allocs: 0}, true},
		{metrics{ns: 100, allocs: 0}, metrics{ns: 100, allocs: 1}, false},
		{metrics{ns: 100, allocs: 88}, metrics{ns: 100, allocs: 96}, true},
		{metrics{ns: 100, allocs: 88}, metrics{ns: 50, allocs: 97}, false},
		{metrics{ns: 100, allocs: 5}, metrics{ns: 100, allocs: 6}, false},
		{metrics{ns: 100, allocs: 657}, metrics{ns: 100, allocs: 600}, true},
	} {
		if line, ok := check("BenchmarkX", c.base, c.fresh); ok != c.ok {
			t.Errorf("%+v -> %+v: pass = %v, want %v (%s)", c.base, c.fresh, ok, c.ok, line)
		}
	}
}
