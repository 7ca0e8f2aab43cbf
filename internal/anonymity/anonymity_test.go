package anonymity

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func echoExit(request []byte) ([]byte, error) {
	return append([]byte("echo:"), request...), nil
}

func TestSealOpenRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		key := bytes.Repeat([]byte{7}, keySize)
		ct, err := seal(key, payload)
		if err != nil {
			return false
		}
		pt, err := open(key, ct)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsShortCiphertext(t *testing.T) {
	key := bytes.Repeat([]byte{7}, keySize)
	if _, err := open(key, []byte{1, 2, 3}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short ciphertext err = %v", err)
	}
}

func TestCircuitRoundTrip(t *testing.T) {
	net := NewNetwork(5, 10*time.Millisecond)
	c, err := net.BuildCircuit("alice", 3, echoExit)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.hops) != 3 {
		t.Fatalf("hops = %d", len(c.hops))
	}
	resp, err := c.RoundTrip([]byte("lookup app.exe"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:lookup app.exe" {
		t.Fatalf("resp = %q", resp)
	}
	trips, lat := c.Stats()
	if trips != 1 || lat != 2*3*10*time.Millisecond {
		t.Fatalf("stats = %d, %v", trips, lat)
	}
}

func TestCircuitManyMessages(t *testing.T) {
	net := NewNetwork(4, time.Millisecond)
	c, err := net.BuildCircuit("alice", 3, echoExit)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		msg := []byte(fmt.Sprintf("message-%d", i))
		resp, err := c.RoundTrip(msg)
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != "echo:"+string(msg) {
			t.Fatalf("message %d corrupted: %q", i, resp)
		}
	}
}

func TestExitSeesPlaintextButNotClient(t *testing.T) {
	// The property the paper wants from Tor: the server-side observer
	// learns the request content (lookups are anonymous by design) but
	// attributes it only to the exit relay, not to the client.
	net := NewNetwork(3, 0)
	var exitSaw []byte
	exit := func(req []byte) ([]byte, error) {
		exitSaw = append([]byte(nil), req...)
		return []byte("ok"), nil
	}
	c, err := net.BuildCircuit("client-77", 3, exit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RoundTrip([]byte("the query")); err != nil {
		t.Fatal(err)
	}
	if string(exitSaw) != "the query" {
		t.Fatalf("exit saw %q", exitSaw)
	}

	// Only the entry relay observed the client's name; every other
	// relay observed only relay names.
	relays := c.hops
	entryObs := relays[0].observed
	if entryObs["client-77"] != 1 {
		t.Fatalf("entry relay observations = %v", entryObs)
	}
	for _, r := range relays[1:] {
		obs := r.observed
		if _, leaked := obs["client-77"]; leaked {
			t.Fatalf("relay %s learned the client identity: %v", r.Name, obs)
		}
		if len(r.observed) == 0 {
			t.Fatalf("relay %s processed nothing", r.Name)
		}
	}
}

func TestMiddleRelayCannotReadPayload(t *testing.T) {
	// Capture what the middle relay receives and check the payload is
	// not visible at that vantage point.
	net := NewNetwork(3, 0)
	secret := []byte("SECRET-LOOKUP-PAYLOAD")
	c, err := net.BuildCircuit("alice", 3, echoExit)
	if err != nil {
		t.Fatal(err)
	}

	// Wrap manually like RoundTrip does and inspect the layer the
	// middle relay would see: still one encryption layer deep.
	data := append([]byte(nil), secret...)
	for i := len(c.keys) - 1; i >= 0; i-- {
		data, err = seal(c.keys[i], data)
		if err != nil {
			t.Fatal(err)
		}
	}
	afterEntry, err := open(c.keys[0], data)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(afterEntry, secret) {
		t.Fatal("middle relay can read the payload")
	}
	afterMiddle, err := open(c.keys[1], afterEntry)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(afterMiddle, secret) {
		t.Fatal("exit-bound layer still must hide payload until the exit peels it")
	}
	final, err := open(c.keys[2], afterMiddle)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final, secret) {
		t.Fatal("exit cannot recover the payload")
	}
}

func TestBuildCircuitErrors(t *testing.T) {
	net := NewNetwork(2, 0)
	if _, err := net.BuildCircuit("a", 3, echoExit); !errors.Is(err, ErrNotEnoughRelays) {
		t.Fatalf("too many hops err = %v", err)
	}
	if _, err := net.BuildCircuit("a", 0, echoExit); !errors.Is(err, ErrNotEnoughRelays) {
		t.Fatalf("zero hops err = %v", err)
	}
}

func TestUnknownCircuitRejected(t *testing.T) {
	r := NewRelay("r")
	if _, err := r.handle(99, "x", []byte("data")); !errors.Is(err, ErrNoCircuit) {
		t.Fatalf("unknown circuit err = %v", err)
	}
}

func TestExitErrorPropagates(t *testing.T) {
	net := NewNetwork(3, 0)
	boom := errors.New("server down")
	c, err := net.BuildCircuit("a", 2, func([]byte) ([]byte, error) { return nil, boom })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RoundTrip([]byte("x")); !errors.Is(err, boom) {
		t.Fatalf("exit error = %v", err)
	}
}

func TestCircuitsAreIndependent(t *testing.T) {
	net := NewNetwork(4, 0)
	c1, _ := net.BuildCircuit("a", 3, func(req []byte) ([]byte, error) { return []byte("one"), nil })
	c2, _ := net.BuildCircuit("b", 3, func(req []byte) ([]byte, error) { return []byte("two"), nil })
	r1, err := c1.RoundTrip([]byte("x"))
	if err != nil || string(r1) != "one" {
		t.Fatalf("c1 = %q, %v", r1, err)
	}
	r2, err := c2.RoundTrip([]byte("x"))
	if err != nil || string(r2) != "two" {
		t.Fatalf("c2 = %q, %v", r2, err)
	}
}

func BenchmarkCircuitRoundTrip3Hops(b *testing.B) {
	net := NewNetwork(3, 0)
	c, err := net.BuildCircuit("bench", 3, echoExit)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RoundTrip(payload); err != nil {
			b.Fatal(err)
		}
	}
}
