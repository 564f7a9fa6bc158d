package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"interpose/internal/apps"
	"interpose/internal/kernel"
)

// Every input the benchmark feeds the daemon comes from here and is a
// function of the seed alone: the argv mix, the open-loop arrival
// schedule, the churn spec mix, and the fixture files.

// stream derives an independent generator for one purpose of one seed,
// so adding draws to one stream never shifts another.
func stream(seed int64, purpose string, index int) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(index)*0xbf58476d1ce4e5b9
	for _, c := range purpose {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h)))
}

// vocabulary for echo arguments and fixture text (ASCII only: session
// output travels as a JSON string, which would mangle invalid UTF-8).
var vocabulary = strings.Fields(`agent interpose kernel syscall layer
toolkit pathname descriptor union trace timex world session tenant
journal fork exec pool daemon socket inode dentry cache fault signal`)

// fixture is one file the short-sessions worlds carry.
type fixture struct {
	path string
	data string
}

// fixtureSizes runs from a single line to a few 4 KiB reads, so cat's
// read/write loop runs from one to several iterations. The sizes are a
// spread chosen for that reason, not measured from any traffic.
var fixtureSizes = []int{64, 512, 4096, 16384}

// genFixtures returns the seeded fixture files for short-sessions.
func genFixtures(seed int64) []fixture {
	r := stream(seed, "fixtures", 0)
	var out []fixture
	for i, size := range fixtureSizes {
		var b strings.Builder
		col := 0
		for b.Len() < size {
			w := vocabulary[r.Intn(len(vocabulary))]
			if col > 0 && col+len(w) > 70 {
				b.WriteByte('\n')
				col = 0
			} else if col > 0 {
				b.WriteByte(' ')
				col++
			}
			b.WriteString(w)
			col += len(w)
		}
		b.WriteByte('\n')
		out = append(out, fixture{path: fmt.Sprintf("/fixtures/f%d.txt", i), data: b.String()})
	}
	return out
}

// installFixtures is the Config.Setup hook that writes fixtures into a
// freshly booted world.
func installFixtures(fx []fixture) func(*kernel.Kernel) error {
	return func(k *kernel.Kernel) error {
		if err := k.MkdirAll("/fixtures", 0o755); err != nil {
			return err
		}
		for _, f := range fx {
			if err := k.WriteFile(f.path, []byte(f.data), 0o644); err != nil {
				return err
			}
		}
		return nil
	}
}

// session is one exec request with its oracle: the exact output and
// exit status a correct world produces.
type session struct {
	argv   []string
	output string
	status int
}

// lsBin is the exact output of `ls /bin`: every installed program, one
// per line, sorted.
func lsBin() string { return strings.Join(apps.Names(), "\n") + "\n" }

// shortMix generates the short-sessions argv mix: true, echo of seeded
// words, cat of a fixture, and ls /bin, in seeded order. No measured
// traffic says how often tenants run each, so the four are equally
// likely.
type shortMix struct {
	r  *rand.Rand
	fx []fixture
	ls string
}

func newShortMix(seed int64, index int, fx []fixture) *shortMix {
	return &shortMix{r: stream(seed, "short-mix", index), fx: fx, ls: lsBin()}
}

func (m *shortMix) next() session {
	switch m.r.Intn(4) {
	case 0:
		return session{argv: []string{"true"}}
	case 1:
		n := 1 + m.r.Intn(8)
		words := make([]string, n)
		for i := range words {
			words[i] = vocabulary[m.r.Intn(len(vocabulary))]
		}
		return session{argv: append([]string{"echo"}, words...), output: strings.Join(words, " ") + "\n"}
	case 2:
		f := m.fx[m.r.Intn(len(m.fx))]
		return session{argv: []string{"cat", f.path}, output: f.data}
	default:
		return session{argv: []string{"ls", "/bin"}, output: m.ls}
	}
}

// poissonSchedule returns the due offsets of Poisson arrivals at rate
// per second over dur.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	r := stream(seed, "arrivals", 0)
	var out []time.Duration
	var t float64
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// churnKind is one tenant spec in the churn mix.
type churnKind int

const (
	churnCold    churnKind = iota // plain spec, booted on the request path
	churnPooled                   // served from a warm pool
	churnJournal                  // in-memory journal
	numChurnKinds
)

var churnKindNames = [numChurnKinds]string{"cold", "pooled", "journal"}

// churnPoolSize is the warm pool behind pooled churn tenants: an
// assumed size, several times the two clients that can drain it at
// once, so most pooled creates hit; world.pool_hit_ratio reports how
// many did.
const churnPoolSize = 8

// wireSpec is the create body for a churn tenant of this kind.
func (k churnKind) wireSpec(name string) map[string]any {
	spec := map[string]any{"name": name}
	switch k {
	case churnPooled:
		spec["pool"] = churnPoolSize
	case churnJournal:
		spec["journal_mem"] = true
	}
	return spec
}

// churnDeck is the spec mix of one block of cycles. No measured traffic
// gives the shares of the three specs, so each block holds one of each:
// seeds vary the order, never the share.
var churnDeck = []churnKind{churnCold, churnPooled, churnJournal}

// churnMix deals churn specs and echo words in seeded order.
type churnMix struct {
	r    *rand.Rand
	deck []churnKind
}

func newChurnMix(seed int64, index int) *churnMix {
	return &churnMix{r: stream(seed, "churn-mix", index)}
}

func (m *churnMix) next() (churnKind, session) {
	if len(m.deck) == 0 {
		m.deck = append([]churnKind(nil), churnDeck...)
		m.r.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
	}
	k := m.deck[0]
	m.deck = m.deck[1:]
	w, n := vocabulary[m.r.Intn(len(vocabulary))], fmt.Sprint(m.r.Intn(1000))
	return k, session{argv: []string{"echo", w, n}, output: w + " " + n + "\n"}
}
