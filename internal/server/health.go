package server

import (
	"net/http"
	"sync/atomic"

	"softreputation/internal/admission"
	"softreputation/internal/wire"
)

// Replication roles. A server is either the primary (accepts writes,
// publishes its WAL) or a replica (serves reads from replicated state,
// redirects writes to the primary). The role is the store's replica
// mode, held nowhere else. It changes at runtime: Promote turns a
// replica into the primary when the old primary dies.

// ReplicaSource is what the server needs from the replication puller to
// report freshness: the lag behind the primary.
type ReplicaSource interface {
	Lag() uint64
}

// ReplicaTracker is what the server needs from the replication
// publisher for /replstatus: per-replica progress.
type ReplicaTracker interface {
	Status() []wire.ReplicaStatusInfo
}

// ReplicationHandlers is implemented by the replication publisher; the
// server mounts these on /repl/snapshot, /repl/wal, and /repl/digest
// when configured as a primary.
type ReplicationHandlers interface {
	ServeSnapshot(w http.ResponseWriter, r *http.Request)
	ServeWAL(w http.ResponseWriter, r *http.Request)
	ServeDigest(w http.ResponseWriter, r *http.Request)
}

// EnableReplication mounts the WAL-shipping publisher endpoints and
// wires per-replica progress into /replstatus. It must be called before
// Handler(); it exists for callers (the simulation world, tests) whose
// store is created for them, so the publisher cannot be built before
// the server configuration is assembled.
func (s *Server) EnableReplication(p ReplicationHandlers, tr ReplicaTracker) {
	s.cfg.Publisher = p
	s.cfg.ReplicaTracker = tr
}

// Role returns the server's current replication role.
func (s *Server) Role() string {
	if s.IsReplica() {
		return wire.RoleReplica
	}
	return wire.RolePrimary
}

// IsReplica reports whether the server currently redirects writes.
func (s *Server) IsReplica() bool { return s.store.DB().ReplicaMode() }

// PrimaryURL returns the base URL of the server believed to accept
// writes — empty on the primary itself.
func (s *Server) PrimaryURL() string {
	if v, ok := s.primaryURL.Load().(string); ok {
		return v
	}
	return ""
}

// Promote turns a replica into the primary. The promotion epoch is
// bumped durably — fsynced into the local WAL — *before* the write path
// opens: every write this primary ever acknowledges carries the new
// epoch, and the bump itself replicates as an ordinary batch, so any
// node that hears from this primary (or from a client that did) learns
// the old primary is deposed. If the bump cannot be made durable the
// promotion fails and the node stays a replica — a primary whose claim
// to the epoch could vanish in a crash is worse than no primary.
func (s *Server) Promote() error {
	if _, err := s.store.DB().BumpEpoch(); err != nil {
		return err
	}
	s.primaryURL.Store("")
	s.store.DB().SetReplicaMode(false)
	return nil
}

// DemoteToReplica turns this server (typically a fenced ex-primary
// rejoining after a partition) back into a replica of the given
// primary: writes redirect, the store goes back to replica mode, and
// the fence clears — the replication puller now polices epochs, and it
// will quarantine any history the old primary acked that the new epoch
// never saw.
func (s *Server) DemoteToReplica(primaryURL string) {
	s.primaryURL.Store(primaryURL)
	s.store.DB().SetReplicaMode(true)
	s.store.DB().Unfence()
}

// replLag returns how many batches this server trails the primary; 0 on
// the primary itself.
func (s *Server) replLag() uint64 {
	if src := s.cfg.ReplicaSource; src != nil && s.IsReplica() {
		return src.Lag()
	}
	return 0
}

// storageInfo builds the /healthz storage section from the store's
// health counters. Corrupt wins over failed in the state field: a
// corrupt store needs a peer repair, not a reopen, and the operator
// must see which.
func (s *Server) storageInfo() *wire.StorageInfo {
	h := s.store.DB().Health()
	info := &wire.StorageInfo{
		State:         wire.StorageOK,
		Reopens:       h.Reopens,
		WALGroups:     h.Groups,
		WALBatches:    h.Batches,
		WALFsyncs:     h.Fsyncs,
		Compactions:   h.Compactions,
		CompactorLag:  h.CompactorLag,
		ScrubRuns:     h.ScrubRuns,
		ScrubBlocks:   h.ScrubBlocks,
		Corruptions:   h.Corruptions,
		LastScrubUnix: h.LastScrubUnix,
	}
	if h.Failed {
		info.State = wire.StorageFailed
		info.LastFailure = h.Cause
	}
	if h.Corrupt {
		info.State = wire.StorageCorrupt
		info.LastFailure = h.CorruptCause
		info.CorruptUnit = h.CorruptUnit
	}
	return info
}

// handleHealthz answers GET /healthz: role, primary, sequence number,
// replication lag, drain state, and in-flight count. Clients probe it
// to pick an endpoint; operators read it via reputectl health.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	resp := &wire.HealthzResponse{
		Protocols: s.Protocols(),
		Role:      s.Role(),
		Primary:   s.PrimaryURL(),
		Seq:       s.store.Seq(),
		Epoch:     s.Epoch(),
		Fenced:    s.Fenced(),
		Lag:       s.replLag(),
		Draining:  s.Draining(),
		Inflight:  atomic.LoadInt64(&s.inflight),
		Storage:   s.storageInfo(),
	}
	if s.admit != nil {
		resp.Brownout = s.BrownoutLevel().String()
		st := s.admit.Snapshot()
		resp.AdmitLimit = st.Limit
		for cl := admission.Critical; cl < admission.NumClasses; cl++ {
			resp.Classes = append(resp.Classes, wire.AdmissionClassInfo{
				Class:     cl.String(),
				Admitted:  st.Classes[cl].Admitted,
				Shed:      st.Classes[cl].Shed,
				Throttled: st.Classes[cl].Throttled,
			})
		}
	}
	writeXML(w, resp)
}

// handleReplStatus answers GET /replstatus: this server's replication
// view — its sequence numbers and, on a primary, every known replica's
// progress.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	seq, digest := s.store.DB().ChainPosition()
	resp := &wire.ReplStatusResponse{
		Role:    s.Role(),
		Seq:     seq,
		Epoch:   s.Epoch(),
		Digest:  digest,
		Fenced:  s.Fenced(),
		SnapSeq: s.store.DB().SnapSeq(),
		Storage: s.storageInfo().State,
	}
	if tr := s.cfg.ReplicaTracker; tr != nil {
		resp.Replicas = tr.Status()
	}
	writeXML(w, resp)
}
