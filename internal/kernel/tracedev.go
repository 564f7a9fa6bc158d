package kernel

import (
	"bytes"
	"strconv"
	"strings"
	"sync"

	"interpose/internal/sys"
)

// traceDev is the /dev/trace synthetic device: the guest-visible window
// onto the kernel's causal span tracer, mirroring /dev/metrics. A read
// at offset zero renders the current span buffer as Chrome trace-event
// JSON (loadable in Perfetto) and caches the text for sequential
// readers; with no tracer installed reads report "tracing: disabled".
//
// Unlike /dev/metrics, the device is also a control surface: guests can
// retune the tracer from inside the world,
//
//	echo 'sample 0.05' > /dev/trace   # set the head-sampling probability
//	echo clear > /dev/trace           # drop buffered spans
//
// which is interposition's observability story pointed at itself — an
// unmodified shell can turn tracing up around the region it cares about.
type traceDev struct {
	k *Kernel

	mu     sync.Mutex
	render []byte
}

// Seekable marks the device's contents as addressed by file offset (see
// metricsDev.Seekable).
func (d *traceDev) Seekable() bool { return true }

func (d *traceDev) Read(p []byte, off int64) (int, sys.Errno) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off == 0 || d.render == nil {
		var buf bytes.Buffer
		if t := d.k.fac.Load().trc; t != nil {
			if err := t.WriteChrome(&buf); err != nil {
				return 0, sys.EIO
			}
		} else {
			buf.WriteString("tracing: disabled\n")
		}
		d.render = buf.Bytes()
	}
	if off >= int64(len(d.render)) {
		return 0, sys.OK
	}
	return copy(p, d.render[off:]), sys.OK
}

func (d *traceDev) Write(p []byte, off int64) (int, sys.Errno) {
	t := d.k.fac.Load().trc
	if t == nil {
		return 0, sys.ENXIO // no tracer behind the device
	}
	for _, line := range strings.Split(string(p), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch {
		case fields[0] == "clear" && len(fields) == 1:
			t.Clear()
		case fields[0] == "sample" && len(fields) == 2:
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || v < 0 || v > 1 {
				return 0, sys.EINVAL
			}
			t.SetSample(v)
		default:
			return 0, sys.EINVAL
		}
	}
	return len(p), sys.OK
}

func (d *traceDev) Ioctl(req, arg sys.Word, c sys.Ctx) sys.Errno {
	return sys.ENOTTY
}
