package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// LogLevel orders log severities.
type LogLevel int

const (
	// LevelDebug is chatty per-operation detail.
	LevelDebug LogLevel = iota
	// LevelInfo is normal operational events.
	LevelInfo
	// LevelWarn is recoverable trouble (retries, backoff, degraded).
	LevelWarn
	// LevelError is failures needing operator attention.
	LevelError
)

func (l LogLevel) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// ParseLogLevel maps a flag string onto a level; unknown strings get
// LevelInfo.
func ParseLogLevel(s string) LogLevel {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	default:
		return LevelInfo
	}
}

// Logger writes leveled, machine-parseable key=value lines:
//
//	ts=2026-01-02T15:04:05Z level=info msg="replica resumed" seq=412
//
// A nil *Logger is a valid no-op logger, so packages can take one as an
// optional field without nil checks at every call site. Logger is safe
// for concurrent use; each line is written in a single Write call.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level LogLevel
	now   func() time.Time
}

// NewLogger creates a logger writing lines at or above level to w.
func NewLogger(w io.Writer, level LogLevel) *Logger {
	return &Logger{w: w, level: level, now: time.Now}
}

// Enabled reports whether a line at the given level would be written.
func (l *Logger) Enabled(level LogLevel) bool {
	return l != nil && level >= l.level
}

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, kv ...interface{}) { l.log(LevelInfo, msg, kv) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kv ...interface{}) { l.log(LevelWarn, msg, kv) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, kv ...interface{}) { l.log(LevelError, msg, kv) }

func (l *Logger) log(level LogLevel, msg string, kv []interface{}) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	l.mu.Lock()
	defer l.mu.Unlock()
	b.WriteString("ts=")
	b.WriteString(l.now().UTC().Format(time.RFC3339))
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	b.WriteString(quoteValue(msg))
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		b.WriteString(fmt.Sprint(kv[i]))
		b.WriteByte('=')
		b.WriteString(quoteValue(fmt.Sprint(kv[i+1])))
	}
	if len(kv)%2 == 1 {
		// An odd trailing value is a call-site bug; keep the value
		// visible rather than dropping it silently.
		b.WriteString(" EXTRA=")
		b.WriteString(quoteValue(fmt.Sprint(kv[len(kv)-1])))
	}
	b.WriteByte('\n')
	_, _ = io.WriteString(l.w, b.String())
}

// quoteValue quotes a value only when it needs it, keeping the common
// numeric and token case grep-friendly.
func quoteValue(v string) string {
	if v == "" {
		return `""`
	}
	if strings.ContainsAny(v, " \t\n\"=") {
		return strconv.Quote(v)
	}
	return v
}
