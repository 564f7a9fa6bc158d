package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// opSequence renders every generated input of a seed: the short mix of
// each client, the arrival schedule, the churn spec mix and the
// fixtures.
func opSequence(seed int64) string {
	fx := genFixtures(seed)
	var out []any
	for c := 0; c < maxConns+1; c++ {
		m := newShortMix(seed, c, fx)
		for i := 0; i < 200; i++ {
			out = append(out, m.next())
		}
		cm := newChurnMix(seed, c)
		for i := 0; i < 50; i++ {
			k, s := cm.next()
			out = append(out, k, s)
		}
	}
	out = append(out, poissonSchedule(seed, openRate, 100*time.Millisecond), fx)
	return fmt.Sprintf("%#v", out)
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := opSequence(7), opSequence(7); a != b {
		t.Fatal("seed 7 generated two different input sequences")
	}
	if opSequence(7) == opSequence(8) {
		t.Fatal("seeds 7 and 8 generated the same input sequence")
	}
	// Each part moves with the seed on its own.
	if reflect.DeepEqual(poissonSchedule(7, openRate, time.Second), poissonSchedule(8, openRate, time.Second)) {
		t.Fatal("arrival schedule ignores the seed")
	}
	if reflect.DeepEqual(newShortMix(7, 0, nil).r.Int63(), newShortMix(8, 0, nil).r.Int63()) {
		t.Fatal("argv mix ignores the seed")
	}
	var k7, k8 []churnKind
	m7, m8 := newChurnMix(7, 0), newChurnMix(8, 0)
	for i := 0; i < 20; i++ {
		a, _ := m7.next()
		b, _ := m8.next()
		k7, k8 = append(k7, a), append(k8, b)
	}
	if reflect.DeepEqual(k7, k8) {
		t.Fatal("spec mix ignores the seed")
	}
}

func TestChurnDeckKeepsShares(t *testing.T) {
	m := newChurnMix(3, 0)
	var n [numChurnKinds]int
	for i := 0; i < 10*len(churnDeck); i++ {
		k, _ := m.next()
		n[k]++
	}
	if n != [numChurnKinds]int{10, 10, 10} {
		t.Fatalf("kind counts %v, want 10 of each", n)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	var s samples
	for i := 1; i <= 999; i++ {
		s = append(s, int64(i))
	}
	if _, ok := s.percentile(99); ok {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	s = append(s, 1000)
	v, ok := s.percentile(99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, ok)
	}
	if _, ok := s[:19].percentile(50); ok {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if v, ok := s[:20].percentile(50); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, ok)
	}
	// Windowed figures follow the same rule: 999 samples give a median
	// but no p99, and 19 give nothing.
	var ops []obs
	for i := 0; i < 999; i++ {
		ops = append(ops, obs{at: int64(i), d: 1000})
	}
	tm, err := windowedTiming("x", ops, time.Second, time.Microsecond)
	if err != nil || tm.p50 != 1 || tm.p99 != 0 {
		t.Fatalf("windowedTiming of 999 samples = %+v, %v; want p50 1us and no p99", tm, err)
	}
	if _, err := windowedTiming("x", ops[:19], time.Second, time.Microsecond); err == nil {
		t.Fatal("windowedTiming reported a median from 19 samples")
	}
}

func TestWindowedMediansIgnoreOneStall(t *testing.T) {
	var ops []obs
	stretch := 4 * time.Second
	for i := 0; i < 8000; i++ {
		at := int64(i) * int64(stretch) / 8000
		d := int64(100_000)
		if at < int64(window) {
			d = 50_000_000 // one stalled window
		}
		ops = append(ops, obs{at: at, d: d})
	}
	tm, err := windowedTiming("x", ops, stretch, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if tm.windows != 8 || tm.p50 != 100 || tm.p99 != 100 {
		t.Fatalf("got %+v, want p50 = p99 = 100us over 8 windows", tm)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "call", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "call", Start: 40, End: 70}, // overlaps the first
		{ID: 4, Parent: 2, Name: "server", Start: 20, End: 50},
	}
	got := map[string]int64{}
	for _, st := range selfTimes(spans) {
		got[st.name] = st.self
	}
	want := map[string]int64{"op": 40, "call": 40, "server": 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// TestPlantedWrongOutputCounts runs real sessions through a daemon on a
// socket and plants one wrong oracle: it must count as a failure.
func TestPlantedWrongOutputCounts(t *testing.T) {
	tl := &tally{}
	e, err := setupResident(filepath.Join(t.TempDir(), "d"), nil, map[string]any{}, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer e.d.stop()
	c := &client{e: e, t: tl}
	good := session{argv: []string{"echo", "hello", "world"}, output: "hello world\n"}
	planted := session{argv: []string{"echo", "hello"}, output: "goodbye\n"}
	wrongStatus := session{argv: []string{"false"}}
	for _, s := range []session{good, planted, good, wrongStatus} {
		c.execChecked(e.tenants[0], s, 0)
	}
	if tl.attempted != 4 || tl.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2", tl.attempted, tl.failed)
	}
	// A non-2xx reply is a failure too.
	c.execChecked("w999", good, 0)
	if tl.failed != 3 {
		t.Fatalf("failed %d after an exec on a missing world, want 3", tl.failed)
	}
}

// TestFailedOpsAreNotThroughput: a closed-loop op whose checks failed
// must not count as completed work.
func TestFailedOpsAreNotThroughput(t *testing.T) {
	var passed atomic.Int64
	p := closedLoop(nil, &tally{}, nil, 5*time.Millisecond, 0, func(c *client, idx, iter int) bool {
		if iter%2 == 1 {
			return false
		}
		passed.Add(1)
		return true
	})
	if int64(len(p.done)) != passed.Load() || passed.Load() == 0 {
		t.Fatalf("%d ops counted as done, want the %d that passed", len(p.done), passed.Load())
	}
}

func TestBuildOracleMatchesAWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the make tree")
	}
	tl := &tally{}
	e, err := setupBuild(workloads["agent-build"], filepath.Join(t.TempDir(), "d"), 1, tl)
	if err != nil {
		t.Fatal(err)
	}
	defer e.d.stop()
	if tl.failed != 0 {
		t.Fatalf("set-up builds failed their oracle: %v", tl.reasons)
	}
}
