package server

import (
	"net/http"
	"time"
)

// Connection timeouts of the daemons' HTTP servers (snapserved and
// snapshardd). There is deliberately no write timeout: a governed session
// may run for its whole wall-clock budget before its reply is written,
// and a router in front waits for it.
const (
	// ReadHeaderTimeout disconnects a client that has not finished its
	// request headers in time (a slowloris stalls here).
	ReadHeaderTimeout = 5 * time.Second
	// ReadTimeout bounds reading the whole request, body included: 1 MiB
	// at 35 KB/s. net/http lifts the deadline once the body is read, so it
	// does not cut a long session short.
	ReadTimeout = 30 * time.Second
	// IdleTimeout closes keep-alive connections left unused. Left zero,
	// net/http would fall back to ReadTimeout, and a server closing a
	// pooled connection just as a client reuses it fails that client's
	// POST.
	IdleTimeout = 2 * time.Minute
)

// NewHTTPServer is the daemons' http.Server for h, listening on addr
// with the connection timeouts above.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		IdleTimeout:       IdleTimeout,
	}
}
