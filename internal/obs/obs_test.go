package obs

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Emit(L1ReadHit, 3, 42)
	r.EmitSpan(StallMem, 1, 0, 10)
	r.EmitAt(NoCFlitHop, 0, 1, 5, 4)
	r.NameTrack(DomainCU, 0, "cu-00")
	if r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Fatal("nil recorder recorded something")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil recorder trace write: %v", err)
	}
}

func TestRecorderOrderAndWrap(t *testing.T) {
	clock := uint64(0)
	r := NewRecorder(func() uint64 { return clock }, 4)
	for i := 0; i < 6; i++ {
		clock = uint64(i)
		r.Emit(L1ReadHit, 0, uint64(i))
	}
	if r.Total() != 6 || r.Len() != 4 || r.Dropped() != 2 {
		t.Fatalf("total=%d len=%d dropped=%d, want 6/4/2", r.Total(), r.Len(), r.Dropped())
	}
	evs := r.Events()
	for i, e := range evs {
		if want := uint64(i + 2); e.Arg != want {
			t.Fatalf("event %d has arg %d, want %d (oldest-first after wrap)", i, e.Arg, want)
		}
	}
}

func TestDomainOf(t *testing.T) {
	cases := map[Kind]Domain{
		L1ReadHit:      DomainCU,
		SBEvict:        DomainCU,
		StallSync:      DomainCU,
		SyncRelease:    DomainCU,
		L2Read:         DomainL2,
		L2Atomic:       DomainL2,
		L2Registration: DomainL2,
		NoCFlitHop:     DomainNoC,
	}
	for k, want := range cases {
		if got := DomainOf(k); got != want {
			t.Errorf("DomainOf(%v) = %v, want %v", k, got, want)
		}
	}
	for k := KindNone + 1; k < numKinds; k++ {
		if k.String() == "kind?" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	clock := uint64(0)
	r := NewRecorder(func() uint64 { return clock }, 64)
	r.NameTrack(DomainCU, 2, "cu-02")
	r.NameTrack(DomainNoC, 13, "n03-east")
	clock = 10
	r.Emit(L1ReadMiss, 2, 0x40)
	clock = 15
	r.Emit(L2Read, 5, 0x40)
	r.EmitAt(NoCFlitHop, 13, 4, 12, 4)
	clock = 30
	r.EmitSpan(StallMem, 2, 1, 10)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("self-produced trace fails validation: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		`"name":"cu-02"`, `"name":"n03-east"`, // track names
		`"name":"l1.read_miss"`, `"name":"l2.read"`,
		`"ph":"X"`, `"dur":20`, // the stall span
		`"dropped_events":0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s:\n%s", want, out)
		}
	}
}

// TestWriteText pins the text export's line format (registered and
// fallback track names, hex arg, dur on spans only), its trailer on a
// wrapped ring, and the nil recorder's trailer-only output.
func TestWriteText(t *testing.T) {
	clock := uint64(0)
	r := NewRecorder(func() uint64 { return clock }, 3)
	r.NameTrack(DomainCU, 2, "cu-02")
	r.NameTrack(DomainNoC, 13, "n03.east")
	clock = 5
	r.Emit(L1ReadHit, 2, 0x10) // overwritten by the wrap
	clock = 10
	r.Emit(L1ReadMiss, 2, 0x40)
	clock = 15
	r.Emit(L2Read, 5, 0x40)
	r.EmitAt(NoCFlitHop, 13, 4, 12, 4)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "10\tcu-02\tl1.read_miss\t0x40\n" +
		"15\tL2 bank 5\tl2.read\t0x40\n" +
		"12\tn03.east\tnoc.flit_hop\t0x4\tdur=4\n" +
		"# total=4 dropped=1\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteText:\n%s\nwant:\n%s", got, want)
	}

	var nilRec *Recorder
	buf.Reset()
	if err := nilRec.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "# total=0 dropped=0\n" {
		t.Errorf("nil recorder WriteText = %q", got)
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not json":        `{]`,
		"no traceEvents":  `{"foo": 1}`,
		"missing ph":      `{"traceEvents":[{"name":"x","pid":1,"ts":0}]}`,
		"missing name":    `{"traceEvents":[{"ph":"i","pid":1,"ts":0}]}`,
		"missing ts":      `{"traceEvents":[{"name":"x","ph":"i","pid":1}]}`,
		"X without dur":   `{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":0,"ts":5}]}`,
		"only metadata":   `{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"args":{}}]}`,
		"empty event set": `{"traceEvents":[]}`,
	}
	for name, data := range cases {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validation unexpectedly passed", name)
		}
	}
}

func TestSamplerTick(t *testing.T) {
	s := NewSampler(100)
	v := uint64(7)
	s.AddGauge("g", func() uint64 { return v })
	s.Tick(0) // first advance samples the initial state
	v = 9
	s.Tick(50) // below next threshold: no sample
	s.Tick(120)
	v = 11
	s.Tick(130) // same window: no sample
	s.Tick(350) // skipped windows collapse into one sample
	ser := s.Series()
	if ser.Rows() != 3 {
		t.Fatalf("rows = %d, want 3", ser.Rows())
	}
	wantCycles := []uint64{0, 120, 350}
	wantVals := []uint64{7, 9, 11}
	for i := range wantCycles {
		if ser.Data[0][i] != wantCycles[i] || ser.Data[1][i] != wantVals[i] {
			t.Fatalf("row %d = (%d, %d), want (%d, %d)", i, ser.Data[0][i], ser.Data[1][i], wantCycles[i], wantVals[i])
		}
	}
}

func TestSeriesCSVAndJSON(t *testing.T) {
	s := NewSampler(10)
	n := uint64(0)
	s.AddGauge("a", func() uint64 { n++; return n })
	s.AddGauge("b", func() uint64 { return 5 })
	s.Sample(0)
	s.Sample(10)

	var csv bytes.Buffer
	if err := s.Series().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want := "cycle,a,b\n0,1,5\n10,2,5\n"
	if csv.String() != want {
		t.Fatalf("csv = %q, want %q", csv.String(), want)
	}
	if err := ValidateCSV(csv.Bytes()); err != nil {
		t.Fatalf("self-produced CSV fails validation: %v", err)
	}

	var js bytes.Buffer
	if err := s.Series().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"cols":["cycle","a","b"]`, `"data":[[0,10],[1,2],[5,5]]`} {
		if !strings.Contains(js.String(), frag) {
			t.Fatalf("json missing %s: %s", frag, js.String())
		}
	}
}

func TestValidateCSVRejects(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"wrong header": "time,a\n1,2\n",
		"no rows":      "cycle,a\n",
		"ragged row":   "cycle,a\n1\n",
		"non-numeric":  "cycle,a\n1,x\n",
	}
	for name, data := range cases {
		if err := ValidateCSV([]byte(data)); err == nil {
			t.Errorf("%s: validation unexpectedly passed", name)
		}
	}
}

// TestValidateExternalArtifacts validates trace/metrics files produced
// outside the test (the CI observability smoke step runs denovosim with
// -trace/-metrics and then points these env vars at the outputs). It
// skips when the env vars are unset.
func TestValidateExternalArtifacts(t *testing.T) {
	tracePath := os.Getenv("OBS_TRACE_FILE")
	metricsPath := os.Getenv("OBS_METRICS_FILE")
	if tracePath == "" && metricsPath == "" {
		t.Skip("OBS_TRACE_FILE/OBS_METRICS_FILE not set")
	}
	if tracePath != "" {
		data, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateChromeTrace(data); err != nil {
			t.Errorf("%s: %v", tracePath, err)
		}
	}
	if metricsPath != "" {
		data, err := os.ReadFile(metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateCSV(data); err != nil {
			t.Errorf("%s: %v", metricsPath, err)
		}
	}
}
