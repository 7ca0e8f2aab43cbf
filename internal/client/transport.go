package client

import (
	"net"
	"net/http"
	"time"
)

// NewTransport returns an http.Transport tuned for the client's traffic
// shape: many small requests to a handful of server endpoints, where
// per-request dial and handshake cost would dominate the lookup itself.
//
// The stock http.DefaultTransport keeps only two idle connections per
// host (DefaultMaxIdleConnsPerHost), so a client whose failover probing,
// prefetching, and lookups overlap re-dials constantly — the dial-count
// regression test pins this. Lookups are latency-critical (§3.1 freezes
// the process on them), so connections are kept warm well past the
// request rate of a mostly idle host. The server never compresses, so
// the transport does not offer gzip (no Accept-Encoding on the wire).
func NewTransport() *http.Transport {
	return &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          64,
		MaxIdleConnsPerHost:   16,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: time.Second,
		DisableCompression:    true,
	}
}

// defaultHTTPClient is the shared keep-alive-tuned client used when the
// caller passes nil: every API in the process reuses one connection
// pool instead of http.DefaultClient's two-idle-conns-per-host default.
var defaultHTTPClient = &http.Client{Transport: NewTransport()}
