package experiments

import (
	"bytes"
	"fmt"
	"io"

	"interpose/internal/apps"
	"interpose/internal/image"
	"interpose/internal/journal"
	"interpose/internal/kernel"
	"interpose/internal/world"
)

// The crash-consistency cost table ("crash"): what the write-ahead
// journal costs on the write path, and what a world checkpoint buys over
// a full boot. Two relations are enforced by the -check gate (see
// Relations in baseline.go): the journal-on make workload within 15% of
// journal-off, and restoring a checkpoint cheaper than booting the same
// world from scratch.
//
// The write4k rows are the raw per-write floor: an uninterposed 4 KB
// in-memory overwrite is a few hundred nanoseconds of memmove, so the
// journal's extra passes over the data (frame encode, CRC-32, store
// append) necessarily multiply it. The guarded overhead claim is the
// workload-level make rows, where writes ride along real computation the
// way they do in any deployment that would turn the journal on.

// write4kOps is the per-measurement repetition count of the write rows.
const write4kOps = 2000

// crashPrograms is the make-workload size of the make/off and make/on rows.
const crashPrograms = 4

// crashWorld boots the world the checkpoint rows snapshot: a full
// application world carrying the mk workload's source tree, so "boot"
// means the work a crashed deployment would redo without a checkpoint.
// It is a Setup hook away from the standard benchmark spec.
func crashWorld() (*kernel.Kernel, error) {
	s := WorldSpec()
	s.Setup = append(s.Setup, func(k *kernel.Kernel) error {
		return apps.GenMakeTree(k, "/src", 4)
	})
	w, err := world.Boot(s)
	if err != nil {
		return nil, err
	}
	return w.Kernel(), nil
}

// crashTable measures per-write cost with the journal off and on (each
// round in a fresh world, so the journal store does not grow across
// rounds), the make workload — compiler, assembler, linker all writing
// through the VFS — with and without a journal, then checkpoint, restore
// and full-boot latency for the same world.
func crashTable() *Table {
	var makeWorlds [2]*kernel.Kernel // journal off, on
	var ckpt *kernel.Kernel
	var snap []byte
	images := image.NewRegistry()
	t := &Table{Name: "crash", Title: "Crash consistency cost (journal + checkpoint/restore)", Setup: func() (err error) {
		apps.Register(images)
		for i := range makeWorlds {
			if makeWorlds[i], err = World(); err != nil {
				return err
			}
			if err := SetupMake(makeWorlds[i], crashPrograms); err != nil {
				return err
			}
			if i == 1 {
				makeWorlds[i].SetJournal(journal.NewWriter(journal.NewMemStore(0), 0))
			}
		}
		// One canonical world provides the checkpoint image; the snapshot
		// is taken once and restored every round.
		if ckpt, err = crashWorld(); err != nil {
			return err
		}
		var b bytes.Buffer
		if err := ckpt.Checkpoint(&b); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		snap = b.Bytes()
		return nil
	}}
	for i, name := range []string{"off", "on"} {
		t.Rows = append(t.Rows, Row{Name: "write4k/" + name, Unit: Ns, Measure: func() (float64, error) {
			k, err := World()
			if err != nil {
				return 0, err
			}
			if i == 1 {
				k.SetJournal(journal.NewWriter(journal.NewMemStore(0), 0))
			}
			d, err := RunBench(k, nil, "write4k", write4kOps)
			return float64(d) / write4kOps, err
		}})
	}
	for i, name := range []string{"off", "on"} {
		t.Rows = append(t.Rows, Row{Name: "make/" + name, Unit: Ns, Measure: func() (float64, error) {
			if err := CleanMake(makeWorlds[i], crashPrograms); err != nil {
				return 0, err
			}
			return ns(RunMake(makeWorlds[i], nil))
		}})
	}
	t.Rows = append(t.Rows,
		Row{Name: "checkpoint", Unit: Ns, Measure: func() (float64, error) {
			return perCall(1, func() error { return ckpt.Checkpoint(io.Discard) })
		}},
		Row{Name: "restore", Unit: Ns, Measure: func() (float64, error) {
			return perCall(1, func() error {
				_, err := kernel.Restore(images, bytes.NewReader(snap))
				return err
			})
		}},
		Row{Name: "boot", Unit: Ns, Measure: func() (float64, error) {
			return perCall(1, func() error {
				_, err := crashWorld()
				return err
			})
		}})
	return t
}
