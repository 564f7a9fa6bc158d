package kernel_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"interpose/internal/image"
	"interpose/internal/kernel"
	"interpose/internal/sys"
	"interpose/internal/telemetry"
	"interpose/internal/trace"
)

// twoLayerProc boots a kernel with a host-driven process under two
// layers, "lower" and "upper", both interested in getpid. Each calls
// down; upper then runs after, if non-nil.
func twoLayerProc(after func()) (*kernel.Kernel, *kernel.Proc) {
	k := kernel.New(image.NewRegistry())
	p := k.NewProc()
	for _, name := range []string{"lower", "upper"} {
		h := sys.HandlerFunc(callDown)
		if name == "upper" {
			h = func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
				rv, err := callDown(c, num, a)
				if after != nil {
					after()
				}
				return rv, err
			}
		}
		l := kernel.NewEmuLayer(h)
		l.Name = name
		l.Register(sys.SYS_getpid)
		p.PushEmulation(l)
	}
	return k, p
}

// TestPayPerUseAllocatesNothing: with every facility off, getpid
// allocates nothing, with no layers and through a two-layer stack that
// intercepts it.
func TestPayPerUseAllocatesNothing(t *testing.T) {
	bare := kernel.New(image.NewRegistry()).NewProc()
	_, stacked := twoLayerProc(nil)
	for name, p := range map[string]*kernel.Proc{"no layers": bare, "two layers": stacked} {
		if n := testing.AllocsPerRun(1000, func() { p.Syscall(sys.SYS_getpid, sys.Args{}) }); n != 0 {
			t.Errorf("%s: getpid allocates %.1f times per call", name, n)
		}
	}
}

// TestFacilityMatrix runs one interposed call, then one whose upper
// layer panics after its downcall returned, under every combination of
// telemetry and span tracing. Attribution rows for the kernel and both
// layers exist exactly when telemetry is on; the layer and kernel child
// spans chain under the root exactly when the call is sampled; and the
// panicking layer's span is still recorded, entry-style (Dur=-1).
func TestFacilityMatrix(t *testing.T) {
	for _, tel := range []bool{false, true} {
		for _, tracing := range []string{"off", "unsampled", "sampled"} {
			t.Run(fmt.Sprintf("telemetry=%v,trace=%s", tel, tracing), func(t *testing.T) {
				boom := false
				k, p := twoLayerProc(func() {
					if boom {
						panic("boom")
					}
				})
				reg := telemetry.NewRegistry()
				if tel {
					k.SetTelemetry(reg)
				}
				sampled := tracing == "sampled"
				sample := 0.0
				if sampled {
					sample = 1
				}
				tr := trace.NewTracer(trace.Config{Sample: sample})
				if tracing != "off" {
					k.SetSpanTracer(tr)
				}
				if _, err := p.Syscall(sys.SYS_getpid, sys.Args{}); err != sys.OK {
					t.Fatalf("getpid: %v", err)
				}

				rows := map[int]string{}
				for _, l := range reg.Snapshot().Layers {
					if l.Calls > 0 {
						rows[l.Layer] = l.Name
					}
				}
				want := map[int]string{}
				if tel {
					want = map[int]string{0: "kernel", 1: "lower", 2: "upper"}
				}
				if fmt.Sprint(rows) != fmt.Sprint(want) {
					t.Errorf("attribution rows %v, want %v", rows, want)
				}

				spans := tr.Snapshot()
				root := findSpan(spans, func(sp trace.Span) bool { return sp.Layer == trace.LayerRoot })
				if (root != nil) != sampled {
					t.Fatalf("root span %+v, want one exactly when sampled", root)
				}
				if sampled {
					parent := root.ID
					for _, layer := range []int32{2, 1, trace.LayerKernel} {
						sp := findSpan(spans, func(sp trace.Span) bool { return sp.Layer == layer })
						if sp == nil || sp.Parent != parent || sp.Dur < 0 {
							t.Fatalf("layer %d span %+v, want a finished child of span %d", layer, sp, parent)
						}
						parent = sp.ID
					}
				} else if len(spans) != 0 {
					t.Fatalf("unsampled call recorded spans: %+v", spans)
				}

				tr.Clear()
				boom = true
				func() {
					defer func() {
						if r := recover(); r != "boom" {
							t.Fatalf("recovered %v, want the layer's panic", r)
						}
					}()
					p.Syscall(sys.SYS_getpid, sys.Args{})
				}()
				upper := findSpan(tr.Snapshot(), func(sp trace.Span) bool { return sp.Layer == 2 })
				if sampled && (upper == nil || upper.Dur != -1) {
					t.Errorf("panicking layer span %+v, want one recorded with Dur=-1", upper)
				}
				if !sampled && upper != nil {
					t.Errorf("unsampled panicking call recorded span %+v", upper)
				}
			})
		}
	}
}

// TestFacilitySettersCompose: setters racing on one kernel each publish
// a copy of the facility set, so none loses another's update; and
// DetachFacilities turns every facility off in one store, crash hook
// and extra gauges included.
func TestFacilitySettersCompose(t *testing.T) {
	k := kernel.New(image.NewRegistry())
	reg := telemetry.NewRegistry()
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			row := telemetry.NamedCounter{Name: fmt.Sprintf("extra.%d", i), Value: 1}
			k.AddExtraGauges(func() []telemetry.NamedCounter { return []telemetry.NamedCounter{row} })
			k.SetTelemetry(reg)
			k.SetSpanTracer(trace.NewTracer(trace.Config{}))
		}()
	}
	wg.Wait()
	extra := 0
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "extra.") {
			extra++
		}
	}
	if extra != n || k.Telemetry() != reg || k.SpanTracer() == nil {
		t.Fatalf("after %d racing setters: %d extra gauge rows, telemetry %v, tracer %v", n, extra, k.Telemetry(), k.SpanTracer())
	}

	crashed := false
	k.SetCrashHook(func() { crashed = true })
	k.SetSupervisor(kernel.NewSupervisor(k, kernel.SupervisorConfig{}))
	k.DetachFacilities()
	k.Crash()
	if crashed || k.Telemetry() != nil || k.SpanTracer() != nil || k.Supervisor() != nil || k.Injector() != nil {
		t.Fatalf("facilities survived DetachFacilities: crash hook ran %v, telemetry %v, tracer %v, supervisor %v",
			crashed, k.Telemetry(), k.SpanTracer(), k.Supervisor())
	}
}

// TestEmulationStackLimit: a stack of MaxLayers layers dispatches to its
// top layer through the interest bitmap; pushing one more panics.
func TestEmulationStackLimit(t *testing.T) {
	p := kernel.New(image.NewRegistry()).NewProc()
	var top int
	for i := 0; i < kernel.MaxLayers; i++ {
		l := kernel.NewEmuLayer(sys.HandlerFunc(func(c sys.Ctx, num int, a sys.Args) (sys.Retval, sys.Errno) {
			top = i
			return callDown(c, num, a)
		}))
		if i == kernel.MaxLayers-1 {
			l.Register(sys.SYS_getpid)
		}
		p.PushEmulation(l)
	}
	if _, err := p.Syscall(sys.SYS_getpid, sys.Args{}); err != sys.OK || top != kernel.MaxLayers-1 {
		t.Fatalf("getpid: %v, top layer %d, want %d", err, top, kernel.MaxLayers-1)
	}
	if m := p.InterestMask(sys.SYS_getpid); m != 1<<(kernel.MaxLayers-1) {
		t.Fatalf("InterestMask = %#x", m)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("pushing layer MaxLayers+1 did not panic")
		}
	}()
	p.PushEmulation(kernel.NewEmuLayer(sys.HandlerFunc(callDown)))
}
