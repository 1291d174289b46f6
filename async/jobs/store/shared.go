package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/opt"
)

// SharedOptions configure one replica's handle onto a shared store
// directory.
type SharedOptions struct {
	// NoSync skips fsyncs (tests and benchmarks only).
	NoSync bool
	// CompactEvery triggers self-compaction once that many records were
	// appended since the last rewrite. 0 uses a default of 4096; negative
	// disables self-compaction.
	CompactEvery int
	// RetainTerminal bounds how many terminal jobs self-compaction keeps in
	// the rewritten log (most recent by finish time). 0 uses a default of
	// 256.
	RetainTerminal int
}

const (
	walName               = "wal.log"
	sharedLockName        = "wal.lock"
	defaultCompactEvery   = 4096
	defaultRetainTerminal = 256
	sharedMagicLen        = 4 // len(walMagic)
)

// Shared is the file-backed LeaseStore: one wal.log of CRC-framed records
// plus per-job checkpoint spill files in one directory, served by any
// number of replica handles (same process or not). Every mutation runs
// under an exclusive flock on wal.lock. Each handle keeps a cached view of
// the log (records, lease table, seq) and refreshes it incrementally under
// the lock before acting, so cross-replica appends, lease claims, and even
// whole-log compaction swaps are observed before any decision is made on
// stale state. A single-node daemon is simply one replica.
//
// Compaction is self-driven: past SharedOptions.CompactEvery appends the
// handle rewrites the log from the log itself (latest submitted,
// checkpoint and state record per job, terminal history bounded by
// RetainTerminal, lease table re-serialized) — no single replica sees the
// whole cluster's live set, so no caller could supply it. Other replicas
// detect the rewrite by inode change and re-read from the top;
// ReplaySince watermarks carry a generation for the same reason.
type Shared struct {
	mu      sync.Mutex
	dir     string
	replica string
	opts    SharedOptions
	lockF   *os.File
	f       *os.File
	off     int64 // validated byte length of our view of wal.log
	seq     uint64
	gen     uint64 // bumped on every observed compaction swap
	records []Record
	lt      *leaseTable
	buf     []byte

	sinceCompact int64
	appends      int64
	fsyncs       int64
	fsyncNS      int64
	compactions  int64
	spills       int64
	claims       int64
	renews       int64
	fenced       int64
	replayed     int64
	truncated    bool

	// failpoints (tests): see FailAfterAppends, FailNextAppendTransient,
	// and Kill
	failAfter     int64
	armed         bool
	failTransient bool
	dead          bool
	closed        bool
}

// OpenShared opens (creating if needed) the shared store in dir as the
// named replica. Any number of OpenShared handles — across goroutines or
// processes — may serve the same directory concurrently, as long as each
// has its own replica name. Logs written before the lease schema open
// unchanged: the record format is versioned per frame. Open sweeps the
// temp files a crash left behind: the compaction temp (written only under
// the flock, so never live here) and this replica's own spill temps — a
// live peer's in-flight spill carries the peer's name and is left alone.
func OpenShared(dir, replica string, opts SharedOptions) (*Shared, error) {
	if replica == "" {
		return nil, fmt.Errorf("store: shared open: empty replica id")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	lockF, err := os.OpenFile(filepath.Join(dir, sharedLockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open lock: %w", err)
	}
	s := &Shared{dir: dir, replica: replica, opts: opts, lockF: lockF, lt: newLeaseTable()}
	if s.opts.CompactEvery == 0 {
		s.opts.CompactEvery = defaultCompactEvery
	}
	if s.opts.RetainTerminal == 0 {
		s.opts.RetainTerminal = defaultRetainTerminal
	}
	if err := s.flock(); err != nil {
		lockF.Close()
		return nil, err
	}
	defer s.funlock()
	s.sweepTempsLocked()
	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		lockF.Close()
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	s.f = f
	fi, err := f.Stat()
	if err != nil {
		s.closeFiles()
		return nil, fmt.Errorf("store: stat %s: %w", path, err)
	}
	if fi.Size() == 0 {
		if _, err := f.WriteAt(walMagic, 0); err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("store: init %s: %w", path, err)
		}
		if err := s.syncLog(); err != nil {
			s.closeFiles()
			return nil, err
		}
	} else if err := s.checkMagic(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.off = sharedMagicLen
	if err := s.scanTailLocked(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.replayed = int64(len(s.records))
	walReplayed.Add(s.replayed)
	walSize.SetInt(s.off)
	if s.truncated {
		walTruncations.Inc()
	}
	return s, nil
}

// sweepTempsLocked removes temps orphaned by a crash mid
// temp+fsync+rename: wal.log.tmp, this replica's spill temps, and
// ownerless spill temps of the pre-lease single-node format (no live
// writer produces those). Must hold the flock.
func (s *Shared) sweepTempsLocked() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		n := e.Name()
		owner, spill := spillTempOwner(n)
		if n == walName+".tmp" || strings.HasSuffix(n, ".ckpt.tmp") || (spill && owner == s.replica) {
			_ = os.Remove(filepath.Join(s.dir, n))
		}
	}
}

func (s *Shared) closeFiles() {
	if s.f != nil {
		s.f.Close()
	}
	s.lockF.Close()
}

// flock takes the exclusive cross-handle lock; funlock releases it. Each
// handle has its own open file description, so two in-process replicas
// exclude each other exactly like two processes would.
func (s *Shared) flock() error {
	if err := syscall.Flock(int(s.lockF.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("store: flock: %w", err)
	}
	return nil
}

func (s *Shared) funlock() { _ = syscall.Flock(int(s.lockF.Fd()), syscall.LOCK_UN) }

func (s *Shared) checkMagic() error {
	head := make([]byte, sharedMagicLen)
	if _, err := s.f.ReadAt(head, 0); err != nil || !bytes.Equal(head, walMagic) {
		return fmt.Errorf("store: %s is not a WAL (bad magic)", filepath.Join(s.dir, walName))
	}
	return nil
}

// refreshLocked brings the cached view up to date. Must hold mu and the
// flock. Detects a compaction swap (another replica renamed a rewritten
// log over ours) by inode comparison and restarts the view from byte 0;
// then scans any unread tail.
func (s *Shared) refreshLocked() error {
	path := filepath.Join(s.dir, walName)
	dfi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("store: refresh stat: %w", err)
	}
	ffi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: refresh fstat: %w", err)
	}
	if !os.SameFile(dfi, ffi) {
		nf, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("store: reopen after compaction: %w", err)
		}
		_ = s.f.Close()
		s.f = nf
		if err := s.checkMagic(); err != nil {
			return err
		}
		s.off = sharedMagicLen
		s.seq = 0
		s.gen++
		s.records = s.records[:0]
		s.lt = newLeaseTable()
	}
	return s.scanTailLocked()
}

// scanTailLocked decodes records from s.off to EOF, folding them into the
// cached view. A torn or corrupt tail (a replica died mid-append) is
// truncated — safe because the flock is held, so no live writer is past
// it.
func (s *Shared) scanTailLocked() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: tail stat: %w", err)
	}
	size := fi.Size()
	if size <= s.off {
		return nil
	}
	data := make([]byte, size-s.off)
	if _, err := s.f.ReadAt(data, s.off); err != nil {
		return fmt.Errorf("store: tail read: %w", err)
	}
	o := 0
	for o < len(data) {
		rec, n, err := decodeRecord(data[o:])
		if err != nil || rec.Seq != s.seq+1 {
			// damaged here: cut the tail and stop
			if err := s.f.Truncate(s.off + int64(o)); err != nil {
				return fmt.Errorf("store: truncate torn tail: %w", err)
			}
			if err := s.syncLog(); err != nil {
				return err
			}
			s.truncated = true
			walTruncations.Inc()
			break
		}
		s.records = append(s.records, rec)
		s.lt.apply(&rec)
		s.seq = rec.Seq
		o += n
	}
	s.off += int64(o)
	return nil
}

func (s *Shared) syncLog() error { return s.syncFile(s.f) }

// syncFile fsyncs f (unless NoSync) and accounts the latency.
func (s *Shared) syncFile(f *os.File) error {
	if s.opts.NoSync {
		return nil
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	s.fsyncs++
	s.fsyncNS += time.Since(start).Nanoseconds()
	walFsyncLat.ObserveSince(start)
	return nil
}

// appendRecLocked writes one record at the tail of the refreshed view and
// folds it into the caches. Fencing is the caller's concern. Lifecycle
// records are fsynced before it returns. Lease-protocol records (claimed,
// renewed, released) are not: they reach every peer through the file at
// once, and become durable with the next fsynced append — the dispatched
// or terminal record their owner appends next, or anyone's — which is
// how a claim and its dispatch share one fsync. A machine crash can thus
// lose only lease records that no durable record depends on, and every
// replica that read them (flock-coordinated, so on the same machine) dies
// with it. Nothing — seq, offset, caches — advances until the frame is
// written (and fsynced, when it must be): a failed write or fsync unwinds
// the file back to the pre-append tail, so seq numbering stays contiguous
// with the durable log and the next append cannot be mistaken for a torn
// tail by peer replicas.
func (s *Shared) appendRecLocked(rec *Record) error {
	start := time.Now()
	rec.Seq = s.seq + 1
	if rec.Time == 0 {
		rec.Time = start.UnixNano()
	}
	s.buf = rec.encode(s.buf[:0])
	frame := s.buf
	if s.armed {
		if s.failAfter <= 0 {
			// failpoint: tear this append mid-record and die (kill -9
			// between write and ack); the next replica to take the lock
			// truncates the torn tail
			torn := frame[:len(frame)/2]
			_, _ = s.f.WriteAt(torn, s.off)
			s.dead = true
			return ErrClosed
		}
		s.failAfter--
	}
	if err := s.writeFrameLocked(frame, !rec.Type.lease()); err != nil {
		s.unwindAppendLocked()
		return err
	}
	s.seq = rec.Seq
	s.off += int64(len(frame))
	s.records = append(s.records, *rec)
	s.lt.apply(rec)
	s.appends++
	s.sinceCompact++
	walAppends.Inc()
	walAppendLat.ObserveSince(start)
	walSize.SetInt(s.off)
	return nil
}

// writeFrameLocked lands one encoded frame at the validated tail, fsynced
// when sync is set.
func (s *Shared) writeFrameLocked(frame []byte, sync bool) error {
	if s.failTransient {
		// transient failpoint: half the frame lands before the write errors
		// (ENOSPC-style); unlike the crash failpoint the handle survives
		s.failTransient = false
		_, _ = s.f.WriteAt(frame[:len(frame)/2], s.off)
		return fmt.Errorf("store: append: injected transient write failure")
	}
	if _, err := s.f.WriteAt(frame, s.off); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if !sync {
		return nil
	}
	return s.syncLog()
}

// unwindAppendLocked restores the log file to the validated tail (s.off)
// after a failed append, discarding any partially-written frame. If even
// the truncate cannot be made durable the handle goes dead — its view can
// no longer be trusted, and the flock holder that follows will cut any
// torn bytes on refresh.
func (s *Shared) unwindAppendLocked() {
	if err := s.f.Truncate(s.off); err != nil {
		s.dead = true
		return
	}
	if err := s.syncLog(); err != nil {
		s.dead = true
	}
}

// Dir returns the store directory.
func (s *Shared) Dir() string { return s.dir }

// Replica returns the handle's replica ID.
func (s *Shared) Replica() string { return s.replica }

// locked runs fn holding the handle mutex and the cross-handle flock, on
// a view refreshed to the log's current tail.
func (s *Shared) locked(fn func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead || s.closed {
		return ErrClosed
	}
	if err := s.flock(); err != nil {
		return err
	}
	defer s.funlock()
	if err := s.refreshLocked(); err != nil {
		return err
	}
	return fn()
}

// fencedLocked counts a mutation rejected for a stale fencing token.
func (s *Shared) fencedLocked(err error) error {
	s.fenced++
	walFencedAppends.Inc()
	return err
}

// Replay streams the current log from the top. Called once at scheduler
// boot; later cross-replica records arrive through ReplaySince.
func (s *Shared) Replay(fn func(Record) error) error {
	_, err := s.ReplaySince(Watermark{}, fn)
	return err
}

// Append durably logs one record, fencing ownership-asserting records
// against the live lease table (ErrFenced for stale owners), and
// self-compacts the log once CompactEvery records were appended since the
// last rewrite.
func (s *Shared) Append(rec *Record) error {
	return s.locked(func() error {
		if err := s.lt.fence(rec, time.Now()); err != nil {
			return s.fencedLocked(err)
		}
		if err := s.appendRecLocked(rec); err != nil {
			return err
		}
		if s.opts.CompactEvery > 0 && s.sinceCompact >= int64(s.opts.CompactEvery) {
			// best effort: a failed rewrite leaves the (complete) old log
			_ = s.selfCompactLocked()
		}
		return nil
	})
}

// Claim acquires the job's lease for this replica via the claim CAS: free,
// expired, or self-held leases are claimable (epoch bumps past every epoch
// ever observed); a live foreign lease fails with ErrLeaseHeld.
func (s *Shared) Claim(job, owner string, ttl time.Duration) (Lease, error) {
	var l Lease
	err := s.locked(func() (err error) {
		if l, err = s.lt.claim(job, owner, ttl, time.Now()); err != nil {
			return err
		}
		rec := &Record{Type: TypeClaimed, Job: job, Owner: l.Owner, Epoch: l.Epoch, ExpiresAt: l.ExpiresAt}
		if err = s.appendRecLocked(rec); err == nil {
			s.claims++
			walLeaseClaims.Inc()
		}
		return err
	})
	if err != nil {
		return Lease{}, err
	}
	return l, nil
}

// Renew extends this replica's live lease; ErrFenced when the lease
// expired or was superseded (the caller must stop acting as owner and
// re-claim).
func (s *Shared) Renew(job, owner string, epoch int64, ttl time.Duration) (Lease, error) {
	var l Lease
	err := s.locked(func() (err error) {
		if l, err = s.lt.renew(job, owner, epoch, ttl, time.Now()); err != nil {
			return s.fencedLocked(err)
		}
		rec := &Record{Type: TypeRenewed, Job: job, Owner: owner, Epoch: epoch, ExpiresAt: l.ExpiresAt}
		if err = s.appendRecLocked(rec); err == nil {
			s.renews++
			walLeaseRenewals.Inc()
		}
		return err
	})
	if err != nil {
		return Lease{}, err
	}
	return l, nil
}

// Release ends this replica's lease. Releasing a lease the table no longer
// holds is a no-op; a mismatched live lease is ErrFenced.
func (s *Shared) Release(job, owner string, epoch int64) error {
	return s.locked(func() error {
		_, held, err := s.lt.release(job, owner, epoch)
		if err != nil {
			return s.fencedLocked(err)
		}
		if !held {
			return nil
		}
		return s.appendRecLocked(&Record{Type: TypeReleased, Job: job, Owner: owner, Epoch: epoch})
	})
}

// Leases snapshots the lease table (expired entries included — they are
// the orphans an adopter scans for).
func (s *Shared) Leases() ([]Lease, error) {
	var out []Lease
	err := s.locked(func() error {
		out = s.lt.snapshot()
		return nil
	})
	return out, err
}

// ReplaySince streams records appended after the watermark; a compaction
// swap bumps the generation and the rewritten log replays from its top.
// The callback runs without any lock held.
func (s *Shared) ReplaySince(w Watermark, fn func(Record) error) (Watermark, error) {
	var recs []Record
	var out Watermark
	err := s.locked(func() error {
		from := 0
		if w.Gen == s.gen && w.Seq <= uint64(len(s.records)) {
			from = int(w.Seq)
		}
		recs = append([]Record(nil), s.records[from:]...)
		out = Watermark{Gen: s.gen, Seq: s.seq}
		return nil
	})
	if err != nil {
		return w, err
	}
	for _, r := range recs {
		if err := fn(r); err != nil {
			return w, err
		}
	}
	return out, nil
}

// SaveCheckpoint durably spills cp keyed by (job, dispatchSeq) — temp
// file, fsync, rename — then removes the job's older spills. The caller
// appends the checkpointed record only after this returns, so the log
// never references a spill that is not on disk. Spills need no flock: job
// IDs are replica-unique at submission and lease-owned afterwards, so two
// replicas never spill the same job concurrently; the temp name carries
// this replica's ID so a peer's open-time sweep leaves it alone.
func (s *Shared) SaveCheckpoint(job string, dispatchSeq int64, cp *opt.Checkpoint) error {
	name, err := ckptName(job, dispatchSeq)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead || s.closed {
		return ErrClosed
	}
	var buf bytes.Buffer
	if err := opt.SaveCheckpoint(&buf, cp); err != nil {
		return fmt.Errorf("store: spill %s: %w", job, err)
	}
	tmp := filepath.Join(s.dir, name+spillTempSep+s.replica)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: spill %s: %w", job, err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return fmt.Errorf("store: spill %s: %w", job, err)
	}
	if err := s.syncFile(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: spill %s: %w", job, err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		return fmt.Errorf("store: spill %s: %w", job, err)
	}
	s.spills++
	walSpills.Inc()
	dropSpillFiles(s.dir, job, name)
	return nil
}

// LoadCheckpoint loads the spill keyed by (job, dispatchSeq).
func (s *Shared) LoadCheckpoint(job string, dispatchSeq int64) (*opt.Checkpoint, error) {
	name, err := ckptName(job, dispatchSeq)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, fmt.Errorf("store: load checkpoint %s@%d: %w", job, dispatchSeq, err)
	}
	defer f.Close()
	return opt.LoadCheckpoint(f)
}

// DropJob removes all spilled checkpoints of a terminal job.
func (s *Shared) DropJob(job string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead || s.closed {
		return ErrClosed
	}
	dropSpillFiles(s.dir, job, "")
	return nil
}

// selfCompactLocked rewrites the log from the log: per job the latest
// submitted, checkpoint, and state-defining records survive (terminal jobs
// keep only submitted + terminal, bounded to the RetainTerminal most
// recent), and the lease table is re-serialized so claims and epoch
// high-waters outlive the rewrite. Atomic: temp log, fsync, rename; a
// crash leaves either complete log. Other replicas detect the swap by
// inode change on their next refresh.
func (s *Shared) selfCompactLocked() error {
	type agg struct {
		submitted *Record
		ckpt      *Record
		state     *Record // latest dispatched/preempted
		terminal  *Record
	}
	byJob := map[string]*agg{}
	var order []string
	for i := range s.records {
		rec := &s.records[i]
		a := byJob[rec.Job]
		if a == nil {
			a = &agg{}
			byJob[rec.Job] = a
			order = append(order, rec.Job)
		}
		switch rec.Type {
		case TypeSubmitted:
			a.submitted = rec
		case TypeCheckpointed:
			a.ckpt = rec
		case TypeDispatched, TypePreempted:
			a.state = rec
		case TypeDone, TypeFailed, TypeCanceled:
			a.terminal = rec
		}
	}
	// bound terminal history: most recent RetainTerminal finish times win
	var terminalJobs []string
	for _, job := range order {
		if a := byJob[job]; a.terminal != nil {
			terminalJobs = append(terminalJobs, job)
		}
	}
	drop := map[string]bool{}
	if over := len(terminalJobs) - s.opts.RetainTerminal; over > 0 {
		sort.Slice(terminalJobs, func(i, j int) bool {
			return byJob[terminalJobs[i]].terminal.Time < byJob[terminalJobs[j]].terminal.Time
		})
		for _, job := range terminalJobs[:over] {
			drop[job] = true
		}
	}
	var snapshot []*Record
	for _, job := range order {
		a := byJob[job]
		if a.submitted == nil || drop[job] {
			continue
		}
		snapshot = append(snapshot, a.submitted)
		if a.terminal != nil {
			snapshot = append(snapshot, a.terminal)
			continue
		}
		if a.ckpt != nil {
			snapshot = append(snapshot, a.ckpt)
		}
		if a.state != nil {
			snapshot = append(snapshot, a.state)
		}
	}
	snapshot = append(snapshot, s.lt.snapshotRecords(time.Now().UnixNano())...)

	tmp := filepath.Join(s.dir, walName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	buf := append(s.buf[:0], walMagic...)
	keep := make(map[string]bool, len(snapshot))
	newRecs := make([]Record, 0, len(snapshot))
	for i, rec := range snapshot {
		cp := *rec
		cp.Seq = uint64(i + 1)
		buf = cp.encode(buf)
		keep[cp.Job] = true
		newRecs = append(newRecs, cp)
	}
	s.buf = buf[:0]
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := s.syncFile(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	path := filepath.Join(s.dir, walName)
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	nf, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact reopen: %w", err)
	}
	_ = s.f.Close()
	s.f = nf
	s.gen++
	s.seq = uint64(len(newRecs))
	s.off = int64(len(buf))
	s.records = newRecs
	s.sinceCompact = 0
	s.compactions++
	s.appends += int64(len(newRecs))
	walCompactions.Inc()
	walAppends.Add(int64(len(newRecs)))
	walSize.SetInt(s.off)
	// GC spills of jobs the compacted log no longer mentions
	removeSpills(s.dir, func(job, _ string) bool { return !keep[job] })
	return nil
}

// Sync fsyncs the log (graceful-shutdown flush).
func (s *Shared) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead || s.closed {
		return ErrClosed
	}
	start := time.Now()
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	s.fsyncs++
	s.fsyncNS += time.Since(start).Nanoseconds()
	walFsyncLat.ObserveSince(start)
	return nil
}

// Metrics snapshots the counters.
func (s *Shared) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Metrics{
		Appends:             s.appends,
		AppendsSinceCompact: s.sinceCompact,
		Fsyncs:              s.fsyncs,
		FsyncTotal:          time.Duration(s.fsyncNS),
		SizeBytes:           s.off,
		Compactions:         s.compactions,
		CheckpointSpills:    s.spills,
		ReplayedRecords:     s.replayed,
		TruncatedTail:       s.truncated,
		LeaseClaims:         s.claims,
		LeaseRenewals:       s.renews,
		LeasesHeld:          int64(len(s.lt.leases)),
		FencedAppends:       s.fenced,
	}
}

// Close releases the handle's files. The shared log stays live for other
// replicas.
func (s *Shared) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.f.Close()
	_ = s.lockF.Close()
	return err
}

// FailAfterAppends arms the crash failpoint: the next n appends succeed,
// then the following one tears mid-record and this handle goes dead —
// the surviving replicas truncate the torn tail on their next refresh.
// Testing hook.
func (s *Shared) FailAfterAppends(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = true
	s.failAfter = n
}

// FailNextAppendTransient arms a one-shot transient append failure: half
// the next frame lands before the write errors, but the handle survives
// (unlike FailAfterAppends) — exercising the rollback that keeps seq
// numbering contiguous with the durable log. Testing hook.
func (s *Shared) FailNextAppendTransient() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failTransient = true
}

// Kill makes this handle drop every subsequent mutation (ErrClosed)
// without tearing the log — a process death at a record boundary. Testing
// hook.
func (s *Shared) Kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dead = true
}

// spillTempSep joins a spill's final name and its writer's replica ID in
// the temp name the spill is written under before the rename.
const spillTempSep = ".tmp."

// ckptName builds the spill filename for (job, dispatchSeq). Job IDs are
// scheduler-generated ("job-local-000042"); anything path-like is
// rejected.
func ckptName(job string, dispatchSeq int64) (string, error) {
	if job == "" || strings.ContainsAny(job, "/\\:*?\"<>|") || strings.Contains(job, "..") {
		return "", fmt.Errorf("store: invalid job id %q", job)
	}
	return fmt.Sprintf("cp-%s-%d.ckpt", job, dispatchSeq), nil
}

// spillJob parses a spill filename (cp-<job>-<dispatchSeq>.ckpt) back to
// its job ID. Job IDs contain dashes themselves, so the dispatch sequence
// is the number after the last one; anything else is not a spill.
func spillJob(name string) (string, bool) {
	core, ok := strings.CutPrefix(name, "cp-")
	if !ok {
		return "", false
	}
	if core, ok = strings.CutSuffix(core, ".ckpt"); !ok {
		return "", false
	}
	i := strings.LastIndexByte(core, '-')
	if i <= 0 {
		return "", false
	}
	if _, err := strconv.ParseInt(core[i+1:], 10, 64); err != nil {
		return "", false
	}
	return core[:i], true
}

// spillTempOwner returns the replica that wrote a spill temp file.
func spillTempOwner(name string) (string, bool) {
	i := strings.Index(name, ".ckpt"+spillTempSep)
	if i < 0 || !strings.HasPrefix(name, "cp-") {
		return "", false
	}
	return name[i+len(".ckpt"+spillTempSep):], true
}

// removeSpills deletes every spill file in dir whose (job, name) the
// predicate selects.
func removeSpills(dir string, drop func(job, name string) bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		n := e.Name()
		if job, ok := spillJob(n); ok && drop(job, n) {
			_ = os.Remove(filepath.Join(dir, n))
		}
	}
}

// dropSpillFiles removes exactly job's spill files in dir except keep
// ("" = all); a job whose ID extends this one's is not touched.
func dropSpillFiles(dir, job, keep string) {
	removeSpills(dir, func(j, n string) bool { return j == job && n != keep })
}
