package client

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync"
	"testing"
	"time"
)

// TestTransportReusesConnections is the dial-count regression for the
// tuned transport: a burst of concurrent lookups wider than
// http.DefaultMaxIdleConnsPerHost (2) must leave enough warm
// connections that a second burst dials nothing new. The stock default
// transport closes all but two of the burst's connections, so every
// later burst pays fresh dials — the regression this test pins out.
//
// Two things keep the count exact instead of likely. The server holds
// each burst's requests until all of them have arrived, so a burst
// needs width connections at once however its goroutines are scheduled.
// And the transport hands a connection back to the pool just after the
// caller has its response, so the test waits for every hand-back (kept
// or dropped) before it starts the next burst.
func TestTransportReusesConnections(t *testing.T) {
	f := newBinFixture(t, nil)
	const width = 8

	var gate sync.Mutex
	waiting, open := 0, make(chan struct{})
	next := f.srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gate.Lock()
		ch := open
		if waiting++; waiting == width {
			close(open)
			waiting, open = 0, make(chan struct{})
		}
		gate.Unlock()
		<-ch
		next.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var mu sync.Mutex
	dials := 0
	transport := NewTransport()
	transport.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		mu.Lock()
		dials++
		mu.Unlock()
		return (&net.Dialer{}).DialContext(ctx, network, addr)
	}
	api := NewAPI(ts.URL, &http.Client{Transport: transport})

	handedBack := make(chan error, width)
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		PutIdleConn: func(err error) { handedBack <- err },
	})
	burst := func() {
		var wg sync.WaitGroup
		for i := 0; i < width; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := api.Lookup(ctx, binMeta(byte(100+i))); err != nil {
					t.Errorf("lookup: %v", err)
				}
			}(i)
		}
		wg.Wait()
		for i := 0; i < width; i++ {
			select {
			case <-handedBack:
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d connections handed back to the pool", i, width)
			}
		}
	}

	burst()
	mu.Lock()
	after1 := dials
	mu.Unlock()
	if after1 != width {
		t.Fatalf("first burst dials = %d, want %d", after1, width)
	}

	burst()
	mu.Lock()
	after2 := dials
	mu.Unlock()
	if after2 != after1 {
		t.Fatalf("second burst dialed %d new connections; idle pool too small (MaxIdleConnsPerHost must cover the burst)", after2-after1)
	}

	// The tuned pool must actually be configured wider than the stock
	// default that caused the regression.
	if tr := NewTransport(); tr.MaxIdleConnsPerHost <= http.DefaultMaxIdleConnsPerHost {
		t.Fatalf("MaxIdleConnsPerHost = %d, not raised above the default %d",
			tr.MaxIdleConnsPerHost, http.DefaultMaxIdleConnsPerHost)
	}
}
