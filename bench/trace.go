package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

type spanID int32

const (
	noSpan spanID = -1
	noReq         = -1
)

// span is one timed interval at a harness→engine boundary.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     spanID        // noSpan for a repetition root
	req        int           // request id shared by a request's spans, or noReq
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// records nothing, so the untraced loop pays one nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent spanID, req int) spanID {
	if t == nil {
		return noSpan
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, req: req})
	return spanID(len(t.spans) - 1)
}

func (t *tracer) end(id spanID) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
}

// selfTimes returns each span's duration minus the part its children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent != noSpan {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// byName sums self time per span name, and lists each name's durations in
// milliseconds.
func (t *tracer) byName() (self map[string]time.Duration, durMS map[string][]float64) {
	self = map[string]time.Duration{}
	durMS = map[string][]float64{}
	for i, d := range t.selfTimes() {
		s := t.spans[i]
		self[s.name] += d
		durMS[s.name] = append(durMS[s.name], ms(s.end-s.start))
	}
	return self, durMS
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microseconds), loadable in Perfetto or chrome://tracing. Each
// request gets its own track (tid = request id + 1); spans that belong to
// no request go on track 0.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		ev := event{
			Name: s.name, Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.req + 1,
			Args: map[string]int{"span": i, "parent": int(s.parent), "request": s.req},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
