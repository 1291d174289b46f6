// Package store is the durability layer under the jobs scheduler: one
// write-ahead log of job lifecycle transitions plus per-job checkpoint
// spill files, so an asyncd restart — graceful or kill -9 — reconstructs
// the scheduler instead of losing every queued, running, and preempted
// job, and so several asyncd replicas can serve one directory.
//
// # Append-before-ack invariant
//
// Every job lifecycle transition (submitted, dispatched, checkpointed,
// preempted, done, failed, canceled) is appended — and, unless the store
// was opened with NoSync, fsynced — BEFORE the transition is acknowledged
// to the caller. Submit in particular returns a job ID only after the
// submitted record is durable: a job the client was told about can never
// silently vanish across a restart. Transitions that have no external
// acknowledgement (dispatch, periodic checkpoints) are appended before
// the scheduler acts on them, so replay can only ever UNDER-state
// progress, never invent it: a crash between an action and its record
// replays the older state, which re-runs work rather than losing it.
//
// # Log layout
//
// The log is a single file (wal.log) of length-prefixed records in the
// wire-codec frame format:
//
//	[u32 BE frame length L][1-byte format][body][u32 BE CRC-32 (IEEE) of format+body]
//
// where L counts everything after the length prefix (format + body +
// CRC). The body is the compact binary encoding of one Record
// (cluster.BinWriter: varints, length-validated strings). The file opens
// with the magic "AWL1". Records are numbered contiguously from 1. Decode
// is length-validated before any allocation, and a record whose CRC,
// length, body, or sequence number fails to verify ends the replay: the
// longest valid prefix is kept and the torn tail truncated — a kill -9
// mid-append costs exactly the un-acked suffix, never the log. A failed
// append (write or fsync error) is unwound before it returns, so the
// numbering stays contiguous with the durable log and a later append is
// never mistaken for a torn tail.
//
// Checkpoints are not inlined in the log (they are ~dim-sized). Each
// capture spills to its own file, cp-<job>-<dispatchSeq>.ckpt, written
// to a temp name carrying the writer's replica ID, fsynced, and renamed
// into place before the checkpointed record is appended; the record
// carries the dispatch sequence that keys the file. Replay therefore only
// trusts checkpoint files the log mentions — a spill that crashed before
// its record is ignored, and the job resumes from the previous durable
// capture. OpenShared sweeps the temps a crash orphaned: the compaction
// temp and the opener's own spill temps, never a live peer's.
//
// # Leases and epoch fencing
//
// Ownership rides on three more record types — claimed, renewed, released
// — carrying an Owner, a per-job Epoch, and an ExpiresAt deadline (the v2
// binary record format; v1 logs replay unchanged). The scheduler claims a
// queued job before dispatching it: the claim is a CAS that fails with
// ErrLeaseHeld while another replica's lease is live, and succeeds with an
// epoch strictly above every epoch the job has ever seen. That high-water
// mark is the fence: any lifecycle append carrying a stale epoch — or no
// owner at all while a live foreign lease exists — is rejected with
// ErrFenced. A replica that loses its lease (crash, partition, missed
// renewals) can therefore never retroactively finalize the job; the
// adopter's epoch wins, and exactly one terminal record lands in the log.
// Terminal records clear the lease and its epoch history. Submitted,
// claimed, renewed, and released records are never themselves fenced.
// Lease records are visible to every replica as soon as they are written
// but carry no fsync of their own: they become durable with the next
// fsynced append, so a claim and the dispatched record that follows it
// share one fsync. A machine crash can lose only lease records that no
// durable record depends on, and it stops every replica that read them:
// replicas coordinate through flock(2), so they share the machine.
//
// # Shared: one directory, any number of replicas
//
// Shared is the file implementation. Every replica — a single-node
// daemon is one replica, named "local" by default — opens the same
// directory and serializes mutations through flock(2) on wal.lock. Each
// handle keeps a cached view of the log and refreshes it incrementally by
// scanning the tail it has not yet seen, so ReplaySince(Watermark{Gen,
// Seq}) lets the scheduler consume exactly the records that are new to
// it. Torn tails are truncated under the lock by whichever handle finds
// them — a record half-written by a killed replica costs that replica its
// un-acked suffix and nothing else, and a claim torn mid-append is
// dropped on recovery (the job stays claimable; no lease leaks from a
// partial record).
//
// # Compaction contract
//
// The log grows by a handful of records per job; the store compacts it by
// itself, from the log, once SharedOptions.CompactEvery records were
// appended since the last rewrite. The rewrite keeps, per job, the latest
// submitted, checkpoint, and state-defining records; a terminal job keeps
// only submitted + terminal, and only the RetainTerminal most recently
// finished terminal jobs survive. The lease table is re-serialized so
// claims and epoch high-waters outlive the rewrite. The new log is written
// to wal.log.tmp, fsynced, and atomically renamed over wal.log — a crash
// at any point leaves either the complete old log or the complete new
// one. Spill files of jobs the new log no longer names are deleted after
// the rename. Every handle detects the swap by inode comparison, bumps its
// generation, and replays the rewritten log from the top; callers of
// ReplaySince must therefore expect records they have already seen.
//
// # Seam
//
// The scheduler depends only on the LeaseStore interface (append / replay
// / checkpoint spill / lease claim / tail replay). Shared is the file
// implementation and Mem the in-memory one used by tests (it never
// compacts); faulty.Wrap layers deterministic fault injection over either.
package store
