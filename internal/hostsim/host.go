package hostsim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"softreputation/internal/core"
	"softreputation/internal/signature"
)

// ErrNoSuchFile is returned when executing a path with no installed
// executable.
var ErrNoSuchFile = errors.New("hostsim: no such file")

// ErrHostCrashed is returned when executing on a crashed host.
var ErrHostCrashed = errors.New("hostsim: host has crashed")

// Decision is the hook's answer for a pending execution.
type Decision int

// Hook decisions.
const (
	// Allow lets the execution proceed.
	Allow Decision = iota
	// Deny blocks the execution.
	Deny
)

// ExecRequest is what the kernel hook hands to the client when a
// process is about to be created: the host, the path, and the raw image
// (from which the client derives the content hash, metadata and
// signature exactly as the §3.1 driver-plus-client pair does).
type ExecRequest struct {
	// Host is the machine name.
	Host string
	// Path is the file-system path being executed.
	Path string
	// Content is the executable image.
	Content []byte
	// Sig is the image's detached signature, if any.
	Sig signature.Detached
	// Critical reports whether the path is an essential system
	// component (MarkCritical): denying it crashes the host, so a
	// fail-closed client must let it run even with no report (§4.2).
	Critical bool
	// At is the execution instant.
	At time.Time
}

// Hook receives every pending execution and decides it. The reputation
// client implements Hook; a nil hook means "no protection installed"
// and everything runs.
type Hook interface {
	// OnExec decides a pending execution synchronously; the process is
	// suspended until it returns.
	OnExec(req ExecRequest) Decision
}

// HookFunc adapts a function to the Hook interface.
type HookFunc func(req ExecRequest) Decision

// OnExec implements Hook.
func (f HookFunc) OnExec(req ExecRequest) Decision { return f(req) }

// Host is one simulated machine. It is safe for concurrent use.
type Host struct {
	// Name identifies the machine.
	Name string

	mu       sync.Mutex
	files    map[string]*Executable
	critical map[string]bool
	hook     Hook
	crashed  bool
	harm     float64
}

// NewHost creates a machine with an empty file system and no hook.
func NewHost(name string) *Host {
	return &Host{
		Name:     name,
		files:    make(map[string]*Executable),
		critical: make(map[string]bool),
	}
}

// Install places an executable at a path, replacing any previous file.
func (h *Host) Install(path string, exe *Executable) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.files[path] = exe
}

// MarkCritical flags a path as an essential system component: denying
// its execution crashes the host, the §4.2 stability failure ("we also
// handed them the ability to crash the entire system in a single mouse
// click").
func (h *Host) MarkCritical(path string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.critical[path] = true
}

// SetHook installs the exec-interception hook; nil uninstalls it.
func (h *Host) SetHook(hook Hook) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.hook = hook
}

// ExecResult reports the outcome of one execution attempt.
type ExecResult struct {
	// Allowed reports whether the program actually ran.
	Allowed bool
	// CrashedHost reports whether this denial brought the system down.
	CrashedHost bool
}

// Exec attempts to run the file at path at the given instant. The
// kernel hook (if any) decides; allowed malicious programs accrue harm,
// denied critical programs crash the host.
func (h *Host) Exec(path string, now time.Time) (ExecResult, error) {
	h.mu.Lock()
	if h.crashed {
		h.mu.Unlock()
		return ExecResult{}, ErrHostCrashed
	}
	exe, ok := h.files[path]
	if !ok {
		h.mu.Unlock()
		return ExecResult{}, fmt.Errorf("%w: %s", ErrNoSuchFile, path)
	}
	hook := h.hook
	isCritical := h.critical[path]
	h.mu.Unlock()

	decision := Allow
	if hook != nil {
		// The hook runs outside the host lock: real clients perform
		// network lookups and user prompts while the process is frozen.
		decision = hook.OnExec(ExecRequest{
			Host:     h.Name,
			Path:     path,
			Content:  exe.Content,
			Sig:      exe.Sig,
			Critical: isCritical,
			At:       now,
		})
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	res := ExecResult{Allowed: decision == Allow}
	if res.Allowed {
		h.harm += exe.Profile.HarmPerRun
	} else if isCritical {
		h.crashed = true
		res.CrashedHost = true
	}
	return res, nil
}

// Crashed reports whether a critical process was denied.
func (h *Host) Crashed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.crashed
}

// Harm returns the accumulated negative-consequence score from allowed
// executions — the user-harm metric of experiment E9.
func (h *Host) Harm() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.harm
}

// SystemProcessNames are the essential components installed on every
// standard host; denying any of them crashes the machine.
var SystemProcessNames = []string{
	"C:/Windows/System32/winlogon.exe",
	"C:/Windows/System32/csrss.exe",
	"C:/Windows/System32/svchost.exe",
	"C:/Windows/System32/lsass.exe",
	"C:/Windows/explorer.exe",
}

// InstallStandardSystem installs the critical system processes, signed
// by the platform vendor's signer when one is provided, and returns the
// installed executables keyed by path.
func InstallStandardSystem(h *Host, osVendor *signature.Signer) map[string]*Executable {
	out := make(map[string]*Executable, len(SystemProcessNames))
	for i, path := range SystemProcessNames {
		vendor := ""
		if osVendor != nil {
			vendor = osVendor.Vendor
		}
		exe := Build(Spec{
			FileName: path,
			Vendor:   vendor,
			Version:  "5.1.2600",
			Seed:     int64(1000 + i),
			Profile: Profile{
				Category:  core.CategoryLegitimate,
				TrueScore: 9,
			},
		})
		if osVendor != nil {
			exe.SignWith(osVendor)
		}
		h.Install(path, exe)
		h.MarkCritical(path)
		out[path] = exe
	}
	return out
}
