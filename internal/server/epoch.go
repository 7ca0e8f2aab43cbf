package server

import "strconv"

// Epoch fencing. Every promotion durably bumps the store's epoch, and
// every request or response can carry the highest epoch its sender has
// observed (wire.HeaderEpoch). A primary that learns of a higher epoch
// than its own — from any client request or peer — has been superseded
// while partitioned away: it fences itself, serving reads but refusing
// writes, until an operator demotes it back into the replication
// stream. The fence is sticky for the same reason the storage-failure
// state is: a deposed primary that silently kept acking writes would
// fork history, and the fork's writes would need quarantine review
// anyway.

// Epoch returns the store's current promotion epoch.
func (s *Server) Epoch() uint64 { return s.store.DB().Epoch() }

// Fenced reports whether this server has observed a higher epoch than
// its own and is refusing writes.
func (s *Server) Fenced() bool { return s.store.DB().Fenced() }

// ObserveEpoch folds an epoch observed from a peer or client into the
// server's fencing state: a primary seeing proof of a later promotion
// fences itself. Replicas ignore observations — they already refuse
// writes, and their replication puller handles epoch policing.
func (s *Server) ObserveEpoch(e uint64) {
	if e == 0 || s.IsReplica() {
		return
	}
	if e > s.store.DB().Epoch() {
		s.store.DB().Fence()
	}
}

// fencePosition is the (epoch, committed seq) pair every response is
// stamped with, the fencing token clients use to detect a deposed
// primary. It is read at flush, after the handler ran, so a write
// acknowledgement carries the position that includes the write. Reads
// never move it, so it is rendered once per change and shared.
type fencePosition struct {
	epoch, seq           uint64
	epochValue, seqValue []string
}

func (s *Server) fencePosition() *fencePosition {
	epoch, seq := s.Epoch(), s.store.Seq()
	if p := s.fencePos.Load(); p != nil && p.epoch == epoch && p.seq == seq {
		return p
	}
	p := &fencePosition{epoch, seq, []string{strconv.FormatUint(epoch, 10)}, []string{strconv.FormatUint(seq, 10)}}
	s.fencePos.Store(p)
	return p
}
