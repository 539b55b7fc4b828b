package server

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDaemonTimeouts pins the daemons' connection timeouts: no write
// timeout (a session may run to its budget), and an explicit idle timeout
// well past the read timeout net/http would otherwise reuse for idle
// keep-alive connections.
func TestDaemonTimeouts(t *testing.T) {
	hs := NewHTTPServer(":0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout != ReadHeaderTimeout || hs.ReadTimeout != ReadTimeout || hs.IdleTimeout != IdleTimeout {
		t.Fatalf("timeouts = %v/%v/%v, want the package constants", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout < hs.ReadHeaderTimeout {
		t.Fatalf("read timeouts %v/%v: want 0 < header <= whole request", hs.ReadHeaderTimeout, hs.ReadTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v; a long session's reply must not be cut off", hs.WriteTimeout)
	}
	if hs.IdleTimeout < 2*time.Minute {
		t.Fatalf("IdleTimeout = %v, want at least 2m", hs.IdleTimeout)
	}
}

func serveOn(t *testing.T, hs *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { hs.Close() })
	return ln.Addr().String()
}

// TestSlowlorisDisconnected: a client that sends half a header line and
// stalls is disconnected once ReadHeaderTimeout passes, instead of holding
// its connection (and goroutine) forever.
func TestSlowlorisDisconnected(t *testing.T) {
	t.Parallel()
	addr := serveOn(t, NewHTTPServer("", New(Config{}).Handler()))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Le"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(ReadHeaderTimeout + 10*time.Second)) //nolint:errcheck
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after the stall", time.Since(start))
	}
	if took := time.Since(start); took < ReadHeaderTimeout-100*time.Millisecond {
		t.Fatalf("disconnected after %v, before ReadHeaderTimeout %v", took, ReadHeaderTimeout)
	}
}

// TestReadTimeoutSparesLongHandlers: net/http lifts the read deadline once
// the body is read, so a handler outliving ReadTimeout (a session running
// to its budget) keeps its request context.
func TestReadTimeoutSparesLongHandlers(t *testing.T) {
	t.Parallel()
	const readTimeout = 100 * time.Millisecond
	ctxErr := make(chan error, 1)
	hs := NewHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		select {
		case <-r.Context().Done():
		case <-time.After(4 * readTimeout):
		}
		ctxErr <- r.Context().Err()
	}))
	hs.ReadTimeout = readTimeout
	addr := serveOn(t, hs)
	resp, err := http.Post("http://"+addr+"/", "text/plain", strings.NewReader("body"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := <-ctxErr; err != nil {
		t.Fatalf("request context ended after ReadTimeout: %v", err)
	}
}
