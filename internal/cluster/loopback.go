package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"

	"fuse/internal/engine"
)

// loopback is an http.RoundTripper that dispatches requests straight into an
// http.Handler — no sockets, no ports. It exists so a whole
// coordinator+workers fleet can run inside one process (tests, `fuseserve
// -localworkers`) speaking the exact same HTTP+JSON protocol as a real
// deployment: the wire format is exercised, only the wire is elided.
type loopback struct {
	handler http.Handler
}

// loopbackWriter is a minimal in-memory http.ResponseWriter. (httptest has a
// nicer one, but this is non-test code and must not import it.)
type loopbackWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *loopbackWriter) Header() http.Header { return w.header }

func (w *loopbackWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *loopbackWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// RoundTrip implements http.RoundTripper. The handler runs synchronously on
// the calling goroutine; the request context (long-poll cancellation,
// per-request timeouts) flows through unchanged.
func (l *loopback) RoundTrip(req *http.Request) (*http.Response, error) {
	w := &loopbackWriter{header: make(http.Header)}
	l.handler.ServeHTTP(w, req)
	if req.Body != nil {
		req.Body.Close()
	}
	if err := req.Context().Err(); err != nil {
		// The handler bailed because the caller's context died; surface it
		// as a transport error like a real client would.
		return nil, fmt.Errorf("cluster: loopback request: %w", err)
	}
	if w.status == 0 {
		w.status = http.StatusOK
	}
	body := w.body // copy so the recorder can be GC'd independently
	return &http.Response{
		StatusCode:    w.status,
		Status:        fmt.Sprintf("%d %s", w.status, http.StatusText(w.status)),
		Proto:         req.Proto,
		ProtoMajor:    req.ProtoMajor,
		ProtoMinor:    req.ProtoMinor,
		Header:        w.header,
		Body:          io.NopCloser(&body),
		ContentLength: int64(body.Len()),
		Request:       req,
	}, nil
}

// LoopbackClient returns an *http.Client whose requests dispatch directly
// into h. Point workers at a coordinator's Handler with base URL
// LoopbackBase to run a fleet in-process.
func LoopbackClient(h http.Handler) *http.Client {
	return &http.Client{Transport: &loopback{handler: h}}
}

// LoopbackBase is the base URL loopback clients use; the host is never
// resolved (the transport short-circuits), it only has to parse.
const LoopbackBase = "http://loopback"

// Fleet is a set of in-process workers driving one coordinator over the
// loopback transport.
type Fleet struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// StartFleet launches n in-process workers (IDs "w01".."wNN", one puller
// each) against the coordinator's handler, each executing jobs with exec.
// Stop the fleet with Stop; the workers also exit when ctx is cancelled.
func StartFleet(ctx context.Context, coord *Coordinator, n int, exec engine.ExecFunc) (*Fleet, error) {
	fleetCtx, cancel := context.WithCancel(ctx)
	f := &Fleet{cancel: cancel}
	client := LoopbackClient(coord.Handler())
	for i := 1; i <= n; i++ {
		w, err := NewWorker(WorkerConfig{
			Coordinator: LoopbackBase,
			Client:      client,
			ID:          fmt.Sprintf("w%02d", i),
			Exec:        exec,
		})
		if err != nil {
			cancel()
			return nil, err
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = w.Run(fleetCtx)
		}()
	}
	return f, nil
}

// Stop cancels the fleet's workers and waits for their loops to exit.
//
//fuselint:blocking waits for worker goroutines to drain
func (f *Fleet) Stop() {
	f.cancel()
	f.wg.Wait()
}
