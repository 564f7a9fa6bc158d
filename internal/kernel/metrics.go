package kernel

import (
	"bytes"
	"sync"

	"interpose/internal/sys"
	"interpose/internal/vfs"
)

// metricsDev is the /dev/metrics synthetic device: a read-only window
// onto the kernel's telemetry registry, so unmodified guest binaries can
// `cat /dev/metrics` and see live counters without any agent installed.
//
// A read at offset zero renders a fresh snapshot and caches the text;
// reads at higher offsets serve the cached render, so one sequential
// reader sees a consistent document even while counters keep moving.
type metricsDev struct {
	k *Kernel

	mu     sync.Mutex
	render []byte
}

// Seekable marks the device's contents as addressed by file offset, so
// the read path advances the descriptor offset and sequential readers
// reach end-of-file (unlike a tty, whose reads consume a queue).
func (d *metricsDev) Seekable() bool { return true }

func (d *metricsDev) Read(p []byte, off int64) (int, sys.Errno) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off == 0 || d.render == nil {
		var buf bytes.Buffer
		if r := d.k.fac.Load().tel; r != nil {
			snap := r.Snapshot()
			snap.Flight = nil // counters window; flight dumps are host-side
			snap.WriteText(&buf)
		} else {
			buf.WriteString("telemetry: disabled\n")
		}
		d.render = buf.Bytes()
	}
	if off >= int64(len(d.render)) {
		return 0, sys.OK
	}
	return copy(p, d.render[off:]), sys.OK
}

func (d *metricsDev) Write(p []byte, off int64) (int, sys.Errno) {
	return 0, sys.EPERM
}

func (d *metricsDev) Ioctl(req, arg sys.Word, c sys.Ctx) sys.Errno {
	return sys.ENOTTY
}

// seekableDevice is implemented by character devices whose contents are
// addressed by file offset; the read path advances the descriptor offset
// for these so sequential readers terminate at end-of-file.
type seekableDevice interface{ Seekable() bool }

func deviceSeekable(ip *vfs.Inode) bool {
	d, ok := ip.Device().(seekableDevice)
	return ok && d.Seekable()
}
