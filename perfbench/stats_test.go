package main

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"globuscompute/internal/protocol"
)

func TestQuantileCarriesSampleCount(t *testing.T) {
	var d Dist
	for i := 1; i <= 1000; i++ {
		d.Add(float64(i))
	}
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
	} {
		q := d.Quantile(tc.p)
		if q.Value != tc.want || q.N != 1000 || q.Beyond() != tc.beyond {
			t.Errorf("p%g = %+v (beyond %d), want value %g, n 1000, beyond %d", tc.p*100, q, q.Beyond(), tc.want, tc.beyond)
		}
	}
	if !d.Quantile(0.99).Trustworthy() || d.Quantile(0.999).Trustworthy() {
		t.Error("a percentile is trustworthy only with at least ten samples beyond it")
	}
	if s := d.Quantile(0.99).String(); !strings.Contains(s, "n=1000") {
		t.Errorf("rendered percentile %q omits its sample count", s)
	}
}

func TestQuantileSmallAndEmpty(t *testing.T) {
	var d Dist
	if q := d.Quantile(0.5); q.N != 0 || q.Value != 0 {
		t.Fatalf("empty distribution read %+v", q)
	}
	for _, v := range []float64{3, 1, 2} {
		d.Add(v)
	}
	if q := d.Quantile(0.5); q.Value != 2 || q.N != 3 {
		t.Errorf("median of {1,2,3} = %+v", q)
	}
	// Adding after a read must re-sort.
	d.Add(0)
	if q := d.Quantile(0.25); q.Value != 0 || q.N != 4 {
		t.Errorf("p25 after adding 0 = %+v", q)
	}
}

func TestDueTimeLatencyCountsGeneratorLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, rate: 200} // one task every 5ms
	if got := s.due(3).Sub(start); got != 15*time.Millisecond {
		t.Fatalf("task 3 due %v after start, want 15ms", got)
	}
	due := s.due(10)
	submitted := due.Add(7 * time.Millisecond) // the generator stalled 7ms
	resolved := submitted.Add(3 * time.Millisecond)
	if got := dueLatency(due, resolved); got != 10*time.Millisecond {
		t.Errorf("latency %v, want 10ms: the stall counts against the task", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 30},
		{20, 40},   // overlaps the first: [10,40) counts once
		{90, 120},  // clipped to the parent: 10
		{150, 160}, // outside the parent: ignored
	}
	if got := unionLength(children, parent.start, parent.end); got != 40 {
		t.Errorf("union of children = %d, want 40", got)
	}
	if got := selfTime(parent, children); got != 60 {
		t.Errorf("self time = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestAnalyzeSpansAttributesEveryStage(t *testing.T) {
	// One task crossing every boundary in order.
	tr := &taskTrace{
		enqStart: 10, enqEnd: 12, httpStart: 15, httpEnd: 20,
		agentDeliver: 22, execStart: 25, execEnd: 45,
		getInStart: 26, getInEnd: 30,
		pubStart: 47, pubEnd: 50, sdkDeliver: 60,
		getOutStart: 61, getOutEnd: 64, resolved: 70,
	}
	st := analyzeSpans(map[string]*taskTrace{"t": tr})
	if st.tasks != 1 || st.rootTotal != 60 || st.unattributed != 0 {
		t.Fatalf("tasks %d root %d unattributed %d, want 1, 60, 0", st.tasks, st.rootTotal, st.unattributed)
	}
	want := map[string]int64{
		"sdk":         2 + 3 + (10 - 3), // enqueue, batch wait, resolve minus its fetch
		"webservice":  5,
		"broker":      2 + 3, // task transit, agent publish
		"engine":      3 + (20 - 4),
		"objectstore": 4 + 3,
		"endpoint":    2,
		"result_path": 10,
	}
	var sum int64
	for layer, w := range want {
		if st.self[layer] != w {
			t.Errorf("self[%s] = %d, want %d", layer, st.self[layer], w)
		}
		sum += st.self[layer]
	}
	if sum != st.rootTotal {
		t.Errorf("layer self times add to %d, want the task's %d", sum, st.rootTotal)
	}

	// Without the SDK delivery stamp, result_path and sdk.resolve are
	// unknown and their stretch shows up as unattributed.
	tr.sdkDeliver, tr.getOutStart, tr.getOutEnd = 0, 0, 0
	st = analyzeSpans(map[string]*taskTrace{"t": tr})
	if st.unattributed != 20 {
		t.Errorf("unattributed = %d, want 20", st.unattributed)
	}
}

func TestRatioCarriesItsBase(t *testing.T) {
	r := Ratio{Num: 15, Den: 16, NumLabel: "hits", DenLabel: "hits+misses"}
	if r.Value() != 0.9375 {
		t.Errorf("value %g", r.Value())
	}
	if b := r.Base(); !strings.Contains(b, "hits=15") || !strings.Contains(b, "hits+misses=16") {
		t.Errorf("base %q does not state numerator and denominator", b)
	}
	k := Ratio{Num: 3, Den: 1500, NumLabel: "requeued", DenLabel: "tasks", Scale: 1000, ScaleLabel: "per 1000 tasks"}
	if k.Value() != 2 || !strings.Contains(k.Base(), "per 1000 tasks") {
		t.Errorf("scaled ratio %g [%s]", k.Value(), k.Base())
	}
	if z := (Ratio{Num: 5, NumLabel: "a", DenLabel: "b"}); z.Value() != 0 || !strings.Contains(z.Base(), "b=0") {
		t.Errorf("zero base reads %g [%s], want 0 with the empty base stated", z.Value(), z.Base())
	}
}

func TestFinalLineShape(t *testing.T) {
	r := result{correct: true, attempted: 10, failed: 0, metrics: []metric{{name: "tasks_per_s", value: 1.5, unit: "tasks/s"}}}
	b, err := json.Marshal(r.final())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("final line %s, want exactly correct, attempted, failed, metrics", b)
	}
	if !strings.Contains(string(got["metrics"]), `"tasks_per_s":{"value":1.5,"unit":"tasks/s"}`) {
		t.Errorf("metrics %s", got["metrics"])
	}
}

func TestInputsAreSeededAndChecked(t *testing.T) {
	a, b := smallInputs{7}.input(3), smallInputs{7}.input(3)
	if a.arg != b.arg || a.arg == (smallInputs{8}).input(3).arg || a.arg == (smallInputs{7}).input(4).arg {
		t.Error("small inputs must depend on seed and sequence only")
	}
	if a.check([]byte(`"`+a.arg+`"`)) != nil || a.check([]byte(`"x"`)) == nil {
		t.Error("small output check")
	}
	l := newLargeInputs(5)
	in := l.input(0)
	if len(in.arg) != largePayloadBytes || l.input(fanout-1).arg != in.arg || l.input(fanout).arg == in.arg {
		t.Errorf("large inputs: %d bytes, shared by %d consecutive tasks", len(in.arg), fanout)
	}
	if newLargeInputs(5).input(1).arg != in.arg {
		t.Error("large inputs must be reproducible from the seed")
	}
	if in.check([]byte(`"`+in.arg+`"`)) != nil || in.check([]byte(`"`+in.arg[1:]+`"`)) == nil {
		t.Error("large outputs are compared by sha256")
	}
}

func TestTallyMergeCountsEachTaskOnce(t *testing.T) {
	a := &tally{attempted: 3, correct: 2, inWindow: 2, refused: 1, ids: []protocol.UUID{"a", "b"}}
	a.latency.Add(5)
	b := &tally{attempted: 2, correct: 2, inWindow: 1, ids: []protocol.UUID{"c", "d"}}
	b.latency.Add(7)
	total := &tally{}
	total.merge(a)
	total.merge(b)
	if total.attempted != 5 || total.correct != 4 || total.inWindow != 3 || total.failures() != 1 ||
		len(total.ids) != 4 || total.latency.Len() != 2 {
		t.Errorf("merged tally %+v", total)
	}
}

func TestTaskIDOf(t *testing.T) {
	if got := taskIDOf([]byte(`{"task_id":"abc-1","state":"success"}`)); got != "abc-1" {
		t.Errorf("got %q", got)
	}
	if got := taskIDOf([]byte(`{"state":"success"}`)); got != "" {
		t.Errorf("got %q from a body without task_id", got)
	}
}

func TestCompareRefusesMixedCohorts(t *testing.T) {
	c := cohort{Revision: "src-a", GoVersion: "go1", NumCPU: 2, GOMAXPROCS: 2, Seed: 1, MeasureVersion: measureVersion}
	rec := func(c cohort) record { return record{Cohort: c, Workload: "w"} }
	head := c
	head.Revision = "src-b"
	if err := checkCohorts([]record{rec(c)}, []record{rec(head)}); err != nil {
		t.Errorf("two revisions in one environment must compare: %v", err)
	}
	other := head
	other.GOMAXPROCS = 4
	if err := checkCohorts([]record{rec(c)}, []record{rec(other)}); !errors.Is(err, errMixedCohort) {
		t.Errorf("GOMAXPROCS differs: got %v", err)
	}
	mixed := c
	mixed.Revision = "src-c"
	if err := checkCohorts([]record{rec(c), rec(mixed)}, []record{rec(head), rec(head)}); !errors.Is(err, errMixedCohort) {
		t.Errorf("one side mixing revisions: got %v", err)
	}
	seed2 := head
	seed2.Seed = 2
	if err := checkCohorts([]record{rec(c)}, []record{rec(seed2)}); !errors.Is(err, errMixedCohort) {
		t.Errorf("different seeds: got %v", err)
	}
}
