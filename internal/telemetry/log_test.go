package telemetry

import (
	"strings"
	"testing"
	"time"
)

func fixedNow() time.Time {
	return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
}

func TestLoggerFormatAndLevels(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelInfo)
	l.SetNow(fixedNow)

	l.Debug("hidden")
	l.Info("replica resumed", "seq", 412, "primary", "http://p:8080")
	l.Warn("quoted value", "err", `disk "full" now`)
	l.Error("odd pair", "k")

	got := b.String()
	want := `ts=2026-08-08T12:00:00Z level=info msg="replica resumed" seq=412 primary=http://p:8080
ts=2026-08-08T12:00:00Z level=warn msg="quoted value" err="disk \"full\" now"
ts=2026-08-08T12:00:00Z level=error msg="odd pair" EXTRA=k
`
	if got != want {
		t.Errorf("log output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	// Must not panic, and Enabled must say no.
	l.Info("into the void", "k", "v")
	l.SetNow(fixedNow)
	if l.Enabled(LevelError) {
		t.Error("nil logger claims enabled")
	}
}

func TestParseLogLevel(t *testing.T) {
	for s, want := range map[string]LogLevel{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "junk": LevelInfo,
	} {
		if got := ParseLogLevel(s); got != want {
			t.Errorf("ParseLogLevel(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestTraceBuffer(t *testing.T) {
	tb := NewTraceBuffer(4, 100*time.Millisecond)

	// Fast 200s are not notable; errors and slow requests are.
	tb.Record(TraceEvent{ID: "fast", Time: fixedNow(), Status: 200, Duration: time.Millisecond})
	if got := len(tb.Events()); got != 0 {
		t.Fatalf("fast 200 recorded: %d events", got)
	}
	for i, ev := range []TraceEvent{
		{ID: "err1", Status: 503, Duration: time.Millisecond},
		{ID: "slow1", Status: 200, Duration: 250 * time.Millisecond},
		{ID: "err2", Status: 429, Duration: time.Millisecond},
		{ID: "err3", Status: 500, Duration: time.Millisecond},
		{ID: "err4", Status: 503, Duration: time.Millisecond},
	} {
		ev.Time = fixedNow().Add(time.Duration(i) * time.Second)
		ev.Path = "/api/lookup"
		ev.Method = "POST"
		tb.Record(ev)
	}
	evs := tb.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d, want 4", len(evs))
	}
	// Newest first; the oldest (err1) fell off the ring.
	if evs[0].ID != "err4" || evs[3].ID != "slow1" {
		t.Errorf("order wrong: first=%s last=%s", evs[0].ID, evs[3].ID)
	}
	if tb.Total() != 5 {
		t.Errorf("total = %d, want 5", tb.Total())
	}

	var b strings.Builder
	if err := tb.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "id=err4 POST /api/lookup status=503") {
		t.Errorf("text dump missing event line:\n%s", b.String())
	}

	// Nil buffer: no-ops everywhere.
	var nilBuf *TraceBuffer
	nilBuf.Record(TraceEvent{Status: 503})
	if nilBuf.Events() != nil || nilBuf.Total() != 0 || nilBuf.Notable(503, 0) {
		t.Error("nil trace buffer not inert")
	}
}
