package world_test

import (
	"testing"

	"interpose/internal/apps"
	"interpose/internal/world"
)

// BenchmarkWorldBoot and BenchmarkWorldFork price the two ways a host
// makes a world of the bare application set: boot it from the image
// registry, or fork an already booted one copy-on-write. Each iteration
// closes the world it made, so the figures include teardown.
func BenchmarkWorldBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := world.Boot(apps.Spec())
		if err != nil {
			b.Fatal(err)
		}
		w.Close()
	}
}

func BenchmarkWorldFork(b *testing.B) {
	base, err := world.Boot(apps.Spec())
	if err != nil {
		b.Fatal(err)
	}
	defer base.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := world.Fork(base, apps.Spec())
		if err != nil {
			b.Fatal(err)
		}
		w.Close()
	}
}
