package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event export. The output is the JSON-object flavour of
// the format ({"traceEvents": [...]}), which chrome://tracing and
// Perfetto both open directly. Each observability domain renders as one
// process (CU, L2 bank, NoC link) and each track within it as one
// thread, so a run shows one lane per CU, per L2 bank and per mesh
// link. Timestamps are simulation cycles written into the "ts"
// microsecond field: 1 displayed microsecond = 1 GPU cycle.

// chromePID maps a domain to a stable trace process id (0 is reserved).
func chromePID(d Domain) int { return int(d) + 1 }

// WriteChromeTrace writes the recorder's held events to w in Chrome
// trace_event JSON format. Safe on a nil recorder (writes an empty but
// valid trace).
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	events := r.Events()

	// Metadata first: name every (domain, track) pair that appears.
	type key struct {
		d Domain
		t int32
	}
	seen := make(map[key]bool)
	for _, e := range events {
		seen[key{DomainOf(e.Kind), e.Track}] = true
	}
	keys := make([]key, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].d != keys[j].d {
			return keys[i].d < keys[j].d
		}
		return keys[i].t < keys[j].t
	})
	first := true
	emit := func(v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(data)
		return err
	}
	type meta struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	for d := Domain(0); d < numDomains; d++ {
		if err := emit(meta{Name: "process_name", Ph: "M", PID: chromePID(d), Args: map[string]any{"name": d.String()}}); err != nil {
			return err
		}
	}
	for _, k := range keys {
		if err := emit(meta{Name: "thread_name", Ph: "M", PID: chromePID(k.d), TID: int(k.t), Args: map[string]any{"name": r.TrackName(k.d, k.t)}}); err != nil {
			return err
		}
	}

	type traceEvent struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   uint64         `json:"ts"`
		Dur  *uint64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		S    string         `json:"s,omitempty"`
		Args map[string]any `json:"args"`
	}
	for i := range events {
		e := &events[i]
		te := traceEvent{
			Name: e.Kind.String(),
			TS:   e.At,
			PID:  chromePID(DomainOf(e.Kind)),
			TID:  int(e.Track),
			Args: map[string]any{"arg": e.Arg},
		}
		if e.isSpan() {
			dur := e.Dur
			te.Ph = "X"
			te.Dur = &dur
		} else {
			te.Ph = "i"
			te.S = "t" // thread-scoped instant
		}
		if err := emit(te); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(fmt.Sprintf(`],"otherData":{"unit":"1us = 1 GPU cycle","total_events":%d,"dropped_events":%d}}`,
		r.Total(), r.Dropped())); err != nil {
		return err
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	return bw.Flush()
}

// ValidateChromeTrace checks that data is a well-formed Chrome
// trace_event JSON document: an object with a traceEvents array whose
// entries carry the fields the viewers require (name, ph, pid; ts for
// non-metadata events). It is the validator behind the CI observability
// smoke step and the obs package's own tests.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("obs: trace has no traceEvents array")
	}
	nonMeta := 0
	for i, ev := range doc.TraceEvents {
		var ph, name string
		if raw, ok := ev["ph"]; !ok {
			return fmt.Errorf("obs: traceEvents[%d] missing ph", i)
		} else if err := json.Unmarshal(raw, &ph); err != nil || ph == "" {
			return fmt.Errorf("obs: traceEvents[%d] has invalid ph", i)
		}
		if raw, ok := ev["name"]; !ok {
			return fmt.Errorf("obs: traceEvents[%d] missing name", i)
		} else if err := json.Unmarshal(raw, &name); err != nil || name == "" {
			return fmt.Errorf("obs: traceEvents[%d] has invalid name", i)
		}
		if _, ok := ev["pid"]; !ok {
			return fmt.Errorf("obs: traceEvents[%d] missing pid", i)
		}
		if ph == "M" {
			continue
		}
		nonMeta++
		var ts float64
		raw, ok := ev["ts"]
		if !ok {
			return fmt.Errorf("obs: traceEvents[%d] (%s) missing ts", i, name)
		}
		if err := json.Unmarshal(raw, &ts); err != nil || ts < 0 {
			return fmt.Errorf("obs: traceEvents[%d] (%s) has invalid ts", i, name)
		}
		if ph == "X" {
			if _, ok := ev["dur"]; !ok {
				return fmt.Errorf("obs: traceEvents[%d] (%s) is a complete event without dur", i, name)
			}
		}
	}
	if nonMeta == 0 {
		return fmt.Errorf("obs: trace contains no events (only metadata)")
	}
	return nil
}
