package storedb

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Filesystem indirection for the operations durability depends on.
// Production code always hits the real filesystem; crash-recovery tests
// install testFS hooks to observe every sync point and to simulate a
// power loss at any one of them (unsynced bytes vanish, un-fsynced
// renames and removes roll back), and fault-injection tests install a
// FaultPlan that scripts EIO, ENOSPC, torn writes, and metadata
// failures. A hook that is set replaces the real operation entirely, so
// a "kill" hook can both refuse the sync and leave the file exactly as
// an interrupted kernel would.
type fsHooks struct {
	// write replaces f.Write for WAL appends; label is "wal".
	write func(f *os.File, p []byte, label string) (int, error)
	// sync replaces f.Sync(); label is "wal" or "snapshot".
	sync func(f *os.File, label string) error
	// syncDir replaces the open+fsync+close of a directory.
	syncDir func(path string) error
	// rename replaces os.Rename.
	rename func(oldpath, newpath string) error
	// remove replaces os.Remove.
	remove func(path string) error
	// created is a notification, not a replacement: it observes that
	// path was just created and its directory entry is not yet durable.
	created func(path string)
}

// testFS is nil in production; crash and fault tests swap hooks in and
// restore nil before the next test. It is an atomic pointer because the
// background compactor and scrubber goroutines read it concurrently
// with a test's install/uninstall.
var testFS atomic.Pointer[fsHooks]

// installFS points the package's filesystem hooks at h; uninstallFS is
// installFS(nil).
func installFS(h *fsHooks) { testFS.Store(h) }

func fsWrite(f *os.File, p []byte, label string) (int, error) {
	if h := testFS.Load(); h != nil && h.write != nil {
		return h.write(f, p, label)
	}
	return f.Write(p)
}

func fsSync(f *os.File, label string) error {
	if h := testFS.Load(); h != nil && h.sync != nil {
		return h.sync(f, label)
	}
	return f.Sync()
}

// fsSyncDir fsyncs a directory so that metadata operations inside it
// (renames, removals, newly created files) survive a power loss. A
// rename is atomic but not durable until the parent directory is
// synced.
func fsSyncDir(path string) error {
	if h := testFS.Load(); h != nil && h.syncDir != nil {
		return h.syncDir(path)
	}
	return realSyncDir(path)
}

func realSyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func fsRename(oldpath, newpath string) error {
	if h := testFS.Load(); h != nil && h.rename != nil {
		return h.rename(oldpath, newpath)
	}
	return os.Rename(oldpath, newpath)
}

func fsRemove(path string) error {
	if h := testFS.Load(); h != nil && h.remove != nil {
		return h.remove(path)
	}
	return os.Remove(path)
}

func fsCreated(path string) {
	if h := testFS.Load(); h != nil && h.created != nil {
		h.created(path)
	}
}

// FaultOp names one class of filesystem operation a FaultRule can
// intercept.
type FaultOp string

const (
	FaultWrite   FaultOp = "write"
	FaultSync    FaultOp = "sync"
	FaultSyncDir FaultOp = "syncdir"
	FaultRename  FaultOp = "rename"
	FaultRemove  FaultOp = "remove"
)

// Canonical injected errors for fault plans. Deliberately not real
// errno values, so an injected fault is always distinguishable from a
// genuine filesystem failure in test output.
var (
	// ErrInjectedIO models EIO: the device refused the operation.
	ErrInjectedIO = errors.New("storedb: injected I/O error")
	// ErrInjectedNoSpace models ENOSPC: the volume ran out of space.
	ErrInjectedNoSpace = errors.New("storedb: injected no space left on device")
)

// FaultRule makes matching filesystem operations fail, stall, or both.
// The zero Label matches every label; Err nil with Delay set models a
// slow device without failing the operation.
type FaultRule struct {
	// Op is the operation class the rule intercepts.
	Op FaultOp
	// Label restricts the rule to one file kind ("wal", "snapshot");
	// empty matches all. Only write and sync ops carry labels.
	Label string
	// After skips the first After matching operations.
	After int
	// Count fires the rule at most Count times; 0 means unlimited.
	Count int
	// Err is the error to inject. Nil with Delay set makes the rule a
	// pure latency model.
	Err error
	// Short, for write ops, writes this many bytes for real before
	// failing — a torn write that leaves a partial frame on disk.
	Short int
	// Delay stalls the operation, modeling device latency. It applies
	// whether or not the rule also injects an error.
	Delay time.Duration

	matched int
	fired   int
}

// FaultPlan is a scripted set of fault rules driving the package's
// filesystem hooks. Crash tests and the simulate binary build a plan,
// Install it, run a workload, and UninstallFaults afterwards.
type FaultPlan struct {
	mu    sync.Mutex
	rules []*FaultRule
	fired int
}

// NewFaultPlan builds a plan over the given rules.
func NewFaultPlan(rules ...*FaultRule) *FaultPlan {
	return &FaultPlan{rules: rules}
}

// Fired returns how many faults the plan has injected so far.
func (p *FaultPlan) Fired() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// decide consults the rules for one operation. Matching rules are
// evaluated in order; their delays accumulate, and the first rule that
// yields an error stops the scan. The returned short prefix length is
// meaningful for write ops only.
func (p *FaultPlan) decide(op FaultOp, label string) (delay time.Duration, short int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.rules {
		if r.Op != op || (r.Label != "" && r.Label != label) {
			continue
		}
		r.matched++
		if r.matched <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		r.fired++
		delay += r.Delay
		if r.Err != nil {
			p.fired++
			return delay, r.Short, r.Err
		}
	}
	return delay, 0, nil
}

// Install points the package's filesystem hooks at the plan. Only one
// plan (or crash simulator) can be installed at a time, and faults
// apply to every database opened by the process — callers install
// around a scoped workload and restore with UninstallFaults.
func (p *FaultPlan) Install() { h := p.hooks(); installFS(&h) }

// UninstallFaults restores direct filesystem access.
func UninstallFaults() { installFS(nil) }

func (p *FaultPlan) hooks() fsHooks {
	return fsHooks{
		write: func(f *os.File, b []byte, label string) (int, error) {
			d, short, err := p.decide(FaultWrite, label)
			if d > 0 {
				time.Sleep(d)
			}
			if err != nil {
				n := 0
				if short > 0 && short < len(b) {
					n, _ = f.Write(b[:short])
				}
				return n, err
			}
			return f.Write(b)
		},
		sync: func(f *os.File, label string) error {
			d, _, err := p.decide(FaultSync, label)
			if d > 0 {
				time.Sleep(d)
			}
			if err != nil {
				return err
			}
			return f.Sync()
		},
		syncDir: func(path string) error {
			d, _, err := p.decide(FaultSyncDir, "")
			if d > 0 {
				time.Sleep(d)
			}
			if err != nil {
				return err
			}
			return realSyncDir(path)
		},
		rename: func(oldpath, newpath string) error {
			d, _, err := p.decide(FaultRename, "")
			if d > 0 {
				time.Sleep(d)
			}
			if err != nil {
				return err
			}
			return os.Rename(oldpath, newpath)
		},
		remove: func(path string) error {
			d, _, err := p.decide(FaultRemove, "")
			if d > 0 {
				time.Sleep(d)
			}
			if err != nil {
				return err
			}
			return os.Remove(path)
		},
	}
}

// FlipFileBit inverts one bit of the file at path, at-rest: bit is
// reduced modulo the file's bit length, so any non-negative value picks
// a deterministic position. Corruption tests and experiment E25 use it
// to model bit rot on files the store is not currently writing.
func FlipFileBit(path string, bit int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		return fmt.Errorf("storedb: flip bit: %s is empty", path)
	}
	if bit < 0 {
		bit = -bit
	}
	bit %= info.Size() * 8
	var b [1]byte
	if _, err := f.ReadAt(b[:], bit/8); err != nil {
		return err
	}
	b[0] ^= 1 << uint(bit%8)
	if _, err := f.WriteAt(b[:], bit/8); err != nil {
		return err
	}
	return f.Sync()
}
