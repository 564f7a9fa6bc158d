package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"interpose/internal/apps"
	"interpose/internal/kernel"
	"interpose/internal/world"
	"interpose/internal/worldd"
)

// maxConns bounds the benchmark's clients and connections: one per CPU
// of the 2-vCPU reference host, so the client never outnumbers the
// processors the daemon shares with it.
const maxConns = 2

// daemon is an in-process worldd serving its API on a real unix socket,
// configured as cmd/worldd configures it by default (health watchdog
// on, default inflight cap, a state directory) except that it logs
// nothing and takes fixtures through Config.Setup, which the wire spec
// cannot carry.
type daemon struct {
	srv  *worldd.Server
	dir  string
	done chan error
	tr   *http.Transport
	hc   *http.Client
}

// startDaemon serves a fresh worldd under dir (created; removed by stop).
// The socket path is kept relative to the working directory so it fits
// the unix socket path limit wherever the checkout lives.
func startDaemon(dir string, setup []func(*kernel.Kernel) error) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := worldd.New(worldd.Config{
		Register: apps.Register,
		Setup:    setup,
		StateDir: filepath.Join(dir, "state"),
	})
	if err != nil {
		return nil, err
	}
	sock := filepath.Join(dir, "w.sock")
	ln, err := worldd.ListenUnix(sock)
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{srv: srv, dir: dir, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ln) }()
	d.tr = &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var dl net.Dialer
			return dl.DialContext(ctx, "unix", sock)
		},
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
	}
	d.hc = &http.Client{Transport: d.tr, Timeout: 60 * time.Second}
	return d, nil
}

// stop drains the daemon, waits for its serve loop, and removes its
// directory.
func (d *daemon) stop() error {
	d.tr.CloseIdleConnections()
	err := d.srv.Shutdown(context.Background())
	if serr := <-d.done; err == nil {
		err = serr
	}
	os.RemoveAll(d.dir)
	return err
}

// apiError is a non-2xx reply: counted as a failed operation.
type apiError struct {
	status int
	body   string
}

func (e *apiError) Error() string { return fmt.Sprintf("HTTP %d: %.200s", e.status, e.body) }

// call sends one request and decodes a 2xx JSON reply into out (if not
// nil). It returns the reply's size in bytes.
func (d *daemon) call(method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, "http://worldd"+path, body)
	if err != nil {
		return 0, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(data), err
	}
	if resp.StatusCode/100 != 2 {
		return len(data), &apiError{status: resp.StatusCode, body: string(data)}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return len(data), fmt.Errorf("%s %s: decode reply: %w", method, path, err)
		}
	}
	return len(data), nil
}

// create boots a tenant from a wire spec and returns its id.
func (d *daemon) create(spec map[string]any) (string, error) {
	var info worldd.Info
	if _, err := d.call("POST", "/1.0/worlds", spec, &info); err != nil {
		return "", err
	}
	return info.ID, nil
}

// exec runs one session on a tenant.
func (d *daemon) exec(id string, argv []string) (world.ExecResult, error) {
	var res world.ExecResult
	_, err := d.call("POST", "/1.0/worlds/"+id+"/exec", world.ExecRequest{Argv: argv}, &res)
	return res, err
}

// remove deletes a tenant.
func (d *daemon) remove(id string) error {
	_, err := d.call("DELETE", "/1.0/worlds/"+id, nil, nil)
	return err
}

// metrics scrapes the fleet view, returning it and its size in bytes.
func (d *daemon) metrics() (worldd.Metrics, int, error) {
	var m worldd.Metrics
	n, err := d.call("GET", "/1.0/metrics", nil, &m)
	return m, n, err
}

// tally counts attempted and failed operations across client goroutines
// and keeps the first few failure reasons for the report.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	rejected  int // failures that were 429 or 503 replies
	reasons   []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail counts one failed operation. Wrong output, non-2xx replies and
// transport errors all land here; none is dropped. A reply refusing the
// request (429, 503) is also counted as rejected.
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	for _, a := range args {
		var ae *apiError
		if err, ok := a.(error); ok && errors.As(err, &ae) &&
			(ae.status == http.StatusTooManyRequests || ae.status == http.StatusServiceUnavailable) {
			t.rejected++
		}
	}
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}
