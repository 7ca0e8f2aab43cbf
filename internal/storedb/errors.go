package storedb

import "errors"

var (
	// ErrClosed is returned by operations on a closed database.
	ErrClosed = errors.New("storedb: database is closed")

	// ErrTxClosed is returned when a transaction is used after it ended.
	ErrTxClosed = errors.New("storedb: transaction has ended")

	// ErrReadOnly is returned when a write is attempted in a View
	// transaction.
	ErrReadOnly = errors.New("storedb: write in read-only transaction")

	// ErrCorrupt is returned when a snapshot or WAL file fails its
	// integrity checks beyond the recoverable tail of the log.
	ErrCorrupt = errors.New("storedb: corrupt database file")

	// ErrBucketName is MustBucket's panic on an invalid name. Names must be
	// non-empty and must not contain the NUL byte, which terminates the
	// bucket prefix in the key space.
	ErrBucketName = errors.New("storedb: invalid bucket name")

	// ErrEmptyKey is returned when an empty key is written.
	ErrEmptyKey = errors.New("storedb: empty key")

	// ErrCompacted is returned by Since when the requested batches are
	// older than both the in-memory tail ring and the on-disk WAL —
	// compaction has folded them into a snapshot, so the caller must
	// bootstrap from a snapshot stream instead.
	ErrCompacted = errors.New("storedb: requested batches already compacted")

	// ErrSeqGap is returned by ApplyBatch when the incoming batch does
	// not directly follow the last applied sequence number — the stream
	// skipped something, and applying it would silently fork history.
	ErrSeqGap = errors.New("storedb: replication sequence gap")

	// ErrReplica is returned by Update while the database is in replica
	// mode: replicas change only by applying the primary's batches, so
	// local writes are refused rather than silently forking the replica.
	ErrReplica = errors.New("storedb: database is in replica mode (read-only)")

	// ErrFenced is returned by Update while the database is fenced: a
	// higher promotion epoch has been observed somewhere in the cluster,
	// so this node's primary role is stale and acking further writes
	// would fork history. The state is sticky, like ErrStorageFailed;
	// reads keep serving. BumpEpoch (taking over at a yet-higher epoch)
	// or Unfence (operator action after demotion) clear it.
	ErrFenced = errors.New("storedb: fenced by a higher promotion epoch (read-only)")

	// ErrStorageFailed is returned by write operations after a WAL
	// append, fsync, truncate, or compaction error has moved the
	// database into its sticky failed state. The state of the log is no
	// longer trustworthy for appends, so the database refuses every
	// write until Reopen has replayed and verified the durable state.
	// Reads keep serving the last committed tree throughout.
	ErrStorageFailed = errors.New("storedb: storage failed (read-only until reopen)")

	// ErrStorageCorrupt is returned by write operations after a
	// checksum verification — a scrub pass, a snapshot block, or a WAL
	// frame below the acknowledged sequence — found bytes that read
	// back cleanly but are wrong. It is distinct from ErrStorageFailed:
	// a failed store has a log whose append state is untrustworthy and
	// Reopen re-verifies it, while a corrupt store has durable data
	// that is provably damaged, so Reopen cannot help. Reads keep
	// serving the in-memory tree; the way back to writable is
	// QuarantineCorrupt (preserving the damaged files) followed by
	// RestoreSnapshotFrom with a verified replacement — in production,
	// replication.Repairer drives exactly that from a healthy replica.
	ErrStorageCorrupt = errors.New("storedb: storage corrupt (read-only until repaired)")

	// ErrQuarantineRequired is returned by RestoreSnapshotFrom on a
	// corrupt store whose damaged files have not been quarantined yet.
	// Overwriting them would destroy the corruption evidence; callers
	// must QuarantineCorrupt first.
	ErrQuarantineRequired = errors.New("storedb: corrupt files must be quarantined before restore")
)
