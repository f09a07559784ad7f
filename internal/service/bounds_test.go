package service

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestServiceOversizeBody: a body past maxRequestBytes gets 413 on both
// JSON routes, and is never run or submitted; a small malformed body still
// gets 400.
func TestServiceOversizeBody(t *testing.T) {
	s := newTestServer(t, Options{})
	defer s.jobs.Close(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	huge := `{"experiment":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	for _, route := range []string{"/v1/run", "/v1/jobs"} {
		for _, tc := range []struct {
			body string
			want int
		}{
			{huge, http.StatusRequestEntityTooLarge},
			{`{"experiment":`, http.StatusBadRequest},
		} {
			resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.want {
				t.Errorf("POST %s with a %d-byte body: status %d, want %d (%s)", route, len(tc.body), resp.StatusCode, tc.want, data)
			}
		}
	}
	var m metricsSnapshot
	getJSON(t, ts, "/metrics", &m)
	if m.Service.Requests != 0 {
		t.Errorf("rejected bodies reached the run path: %d requests counted", m.Service.Requests)
	}
	if len(s.jobs.List()) != 0 {
		t.Errorf("rejected job specs were submitted: %d jobs", len(s.jobs.List()))
	}
}

// TestServiceSlowHeaderClosed: the server carries its edge bounds, and a
// client that never finishes its header is disconnected once the header
// timeout passes. The timeout is shortened here so the test is quick.
func TestServiceSlowHeaderClosed(t *testing.T) {
	s := newTestServer(t, Options{})
	if s.http.ReadHeaderTimeout != readHeaderTimeout || s.http.ReadTimeout != readTimeout ||
		s.http.IdleTimeout != idleTimeout || s.http.MaxHeaderBytes != maxHeaderBytes || s.http.WriteTimeout != 0 {
		t.Fatalf("server bounds: header %v read %v idle %v header bytes %d write %v",
			s.http.ReadHeaderTimeout, s.http.ReadTimeout, s.http.IdleTimeout, s.http.MaxHeaderBytes, s.http.WriteTimeout)
	}
	s.http.ReadHeaderTimeout = 100 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		<-serveErr
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/run HTTP/1.1\r\nHost: slow\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = bufio.NewReader(conn).ReadByte()
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v with an unfinished header", time.Since(start))
	}
	if err == nil {
		t.Fatal("server answered an unfinished header")
	}
}

// TestOverCapResponse: a response body past maxResponseBytes fails the
// call with a clear error, without a retry. The client buffers up to the
// cap, so the name stays outside ci.sh's race patterns (TestClient…),
// where the race detector would multiply that memory.
func TestOverCapResponse(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		chunk := []byte(strings.Repeat(" ", 64<<10))
		for n := 0; n <= maxResponseBytes; n += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer srv.Close()

	var slept []time.Duration
	c := newTestClient(srv, &slept)
	c.MaxAttempts = 3
	_, err := c.Experiments(context.Background())
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("over-cap response: err %v, want a size error", err)
	}
	if calls.Load() != 1 || len(slept) != 0 {
		t.Errorf("over-cap response was retried: %d calls, %d sleeps", calls.Load(), len(slept))
	}
}
