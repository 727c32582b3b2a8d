// Package cas is an on-disk content-addressed object store: the durable
// layer under the experiment service's in-memory result cache. Keys are
// the job manager's content hashes ("sha256:" + 64 hex digits — the
// identity of the work), values are the canonical result bytes. Because
// the simulator is deterministic, an object written by any process for a
// given key is byte-identical to what any other process would compute, so
// a store directory can be shared: re-opened across restarts, or mounted
// by a fleet of workers (the substrate the distributed sweep fabric
// needs).
//
// Layout and durability:
//
//	<dir>/objects/ab/cdef….obj
//
// where ab are the first two hex digits of the key's hash (256-way
// sharding keeps directories small) and the rest name the file. Each
// object is a small checksummed envelope (magic, version, payload length,
// payload SHA-256, payload): a torn or truncated write — or any on-disk
// corruption — fails the checksum and reads as a MISS, never as bad data
// and never as an error that could wedge the service. Writes go through a
// temp file in the same directory, are fsync'd, and land with an atomic
// rename; the directory is fsync'd after both writes and deletes.
//
// Eviction: Open rebuilds an index by scanning the tree (crash-safe — the
// directory IS the state), and a size/age GC policy evicts
// least-recently-used objects first. Access recency survives restarts by
// riding the file mtime, which Get refreshes.
package cas

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Envelope framing.
var magic = [8]byte{'F', 'T', 'G', 'C', 'S', 'C', 'A', '1'}

const (
	headerSize = 8 + 8 + sha256.Size // magic + big-endian length + payload digest
	objExt     = ".obj"
	tmpPrefix  = "tmp-"
)

// MaxObjectBytes bounds a single object's payload (a defensive cap: a
// result payload is KBs; nothing legitimate approaches this).
const MaxObjectBytes = 1 << 30

// Options configures a Store.
type Options struct {
	// MaxBytes bounds the total payload bytes kept on disk; exceeding it
	// evicts least-recently-accessed objects until back under. ≤ 0 means
	// unbounded.
	MaxBytes int64
	// MaxAge evicts objects not accessed for longer than this. ≤ 0 means
	// no age limit.
	MaxAge time.Duration
	// FS overrides the filesystem the store operates on; nil means the
	// real one. Tests inject a FaultFS here (or via WithFS) to exercise
	// the degradation ladder.
	FS FS
	// now overrides the clock in tests.
	now func() time.Time
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	Objects int   `json:"objects"`
	Bytes   int64 `json:"bytes"`
	// Cumulative counters since Open.
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Puts    uint64 `json:"puts"`
	Evicted uint64 `json:"evicted"`
	// Corrupt counts objects that failed envelope validation on read or
	// scan and were removed (each read as a miss, not an error).
	Corrupt uint64 `json:"corrupt"`
	// BytesRead/BytesWritten total the payload bytes served by Get hits
	// and persisted by successful Puts — the store's IO volume, distinct
	// from Bytes (what is resident now).
	BytesRead    uint64 `json:"bytesRead"`
	BytesWritten uint64 `json:"bytesWritten"`
}

// Store is an on-disk content-addressed object store. All methods are
// safe for concurrent use within one process. Multiple processes may
// share a directory: writes are atomic renames, so readers never observe
// partial objects (concurrent GC across processes is best-effort — an
// eviction under a racing reader reads as a miss).
type Store struct {
	dir      string
	maxBytes int64
	maxAge   time.Duration
	now      func() time.Time

	mu    sync.Mutex
	fs    FS         // the filesystem seam; swap with WithFS to inject faults
	ll    *list.List // front = most recently accessed
	index map[string]*list.Element
	bytes int64
	stats Stats
}

type entry struct {
	key   string
	size  int64 // payload bytes
	atime time.Time
}

// Open opens (creating if needed) the store rooted at dir and rebuilds
// the index by scanning the object tree. Unreadable or corrupt objects
// and leftover temp files are removed during the scan.
func Open(dir string, o Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cas: empty store directory")
	}
	if o.now == nil {
		o.now = time.Now
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	if err := o.FS.MkdirAll(filepath.Join(dir, "objects"), 0o777); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: o.MaxBytes,
		maxAge:   o.MaxAge,
		now:      o.now,
		fs:       o.FS,
		ll:       list.New(),
		index:    make(map[string]*list.Element),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked()
	return s, nil
}

// scan rebuilds the index from disk: every valid object becomes an entry
// whose recency is its file mtime; temp files (a crash mid-write) and
// envelopes that fail validation are deleted.
func (s *Store) scan() error {
	root := filepath.Join(s.dir, "objects")
	var entries []entry
	err := s.fs.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, tmpPrefix) || !strings.HasSuffix(name, objExt) {
			s.fs.Remove(path)
			return nil
		}
		key, ok := keyFromPath(root, path)
		if !ok {
			s.fs.Remove(path)
			return nil
		}
		payload, err := readObject(s.fs, path)
		if errors.Is(err, errCorrupt) {
			// Truncated or corrupt: drop it now so the index only ever
			// holds objects that will actually read back.
			s.stats.Corrupt++
			s.fs.Remove(path)
			return nil
		}
		if err != nil {
			// Unreadable for now: leave it on disk unindexed; a later
			// Get adopts it once it reads back.
			return nil
		}
		info, err := d.Info()
		at := s.now()
		if err == nil {
			at = info.ModTime()
		}
		entries = append(entries, entry{key: key, size: int64(len(payload)), atime: at})
		return nil
	})
	if err != nil {
		return fmt.Errorf("cas: scan: %w", err)
	}
	// Oldest first so PushFront leaves the most recently used at the front.
	sort.Slice(entries, func(i, j int) bool { return entries[i].atime.Before(entries[j].atime) })
	for i := range entries {
		e := entries[i]
		s.index[e.key] = s.ll.PushFront(&e)
		s.bytes += e.size
	}
	return nil
}

// Get returns the payload stored under key. A missing, truncated or
// corrupt object is a miss (ok=false), never an error: the caller's
// contract is "recompute on miss", and a store that has lost an object —
// however it lost it — is simply a store that does not have it. Corrupt
// objects are removed on detection; an object that merely fails to open
// or read is kept for the next Get. A hit refreshes the object's recency
// (in the index and on the file mtime, so recency survives restarts).
func (s *Store) Get(key string) (payload []byte, ok bool) {
	path, err := s.path(key)
	if err != nil {
		return nil, false
	}
	payload, rerr := readObject(s.fsys(), path)

	s.mu.Lock()
	defer s.mu.Unlock()
	if rerr != nil {
		switch {
		case errors.Is(rerr, errCorrupt):
			// The file exists but fails validation. Remove it so the slot
			// is honest about being empty.
			s.stats.Corrupt++
			s.fs.Remove(path)
			s.removeIndexLocked(key)
		case os.IsNotExist(rerr):
			s.removeIndexLocked(key)
		}
		// Any other error (a failed open, an I/O error) is transient as
		// far as the store can tell: keep the object and its entry.
		s.stats.Misses++
		return nil, false
	}
	now := s.now()
	if e, exists := s.index[key]; exists {
		e.Value.(*entry).atime = now
		e.Value.(*entry).size = int64(len(payload))
		s.ll.MoveToFront(e)
	} else {
		// Another process wrote it after our scan; adopt it.
		s.index[key] = s.ll.PushFront(&entry{key: key, size: int64(len(payload)), atime: now})
		s.bytes += int64(len(payload))
	}
	s.stats.Hits++
	s.stats.BytesRead += uint64(len(payload))
	s.fs.Chtimes(path, now, now) // best-effort: recency durability
	return payload, true
}

// fsys snapshots the filesystem seam for use outside s.mu (Get and Put
// do their IO unlocked so reads and writes overlap).
func (s *Store) fsys() FS {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fs
}

// WithFS swaps the store's filesystem and returns the store: the
// fault-injection hook. Production code never calls it — the default
// (or Options.FS) is set at Open; tests arm a FaultFS here to break and
// heal the disk under a live store.
func (s *Store) WithFS(fsys FS) *Store {
	if fsys == nil {
		fsys = osFS{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fs = fsys
	return s
}

// Put stores payload under key, atomically: the bytes are written to a
// temp file in the object's own shard directory, fsync'd, and renamed
// into place (then the directory is fsync'd). A crash at any point leaves
// either the old state or the new object, never a torn one. Re-putting an
// existing key refreshes it (last write wins; contents are expected to be
// identical — the key IS the content's identity).
func (s *Store) Put(key string, payload []byte) error {
	if int64(len(payload)) > MaxObjectBytes {
		return fmt.Errorf("cas: object %s: %d bytes exceeds limit %d", key, len(payload), MaxObjectBytes)
	}
	path, err := s.path(key)
	if err != nil {
		return err
	}
	fsys := s.fsys()
	shard := filepath.Dir(path)
	if err := fsys.MkdirAll(shard, 0o777); err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	tmp, err := fsys.CreateTemp(shard, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename

	sum := sha256.Sum256(payload)
	hdr := make([]byte, headerSize)
	copy(hdr, magic[:])
	binary.BigEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	copy(hdr[16:], sum[:])
	if _, err := tmp.Write(hdr); err != nil {
		tmp.Close()
		return fmt.Errorf("cas: %w", err)
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return fmt.Errorf("cas: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("cas: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	syncDir(fsys, shard)

	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	if e, exists := s.index[key]; exists {
		s.bytes += int64(len(payload)) - e.Value.(*entry).size
		e.Value.(*entry).size = int64(len(payload))
		e.Value.(*entry).atime = now
		s.ll.MoveToFront(e)
	} else {
		s.index[key] = s.ll.PushFront(&entry{key: key, size: int64(len(payload)), atime: now})
		s.bytes += int64(len(payload))
	}
	s.stats.Puts++
	s.stats.BytesWritten += uint64(len(payload))
	s.gcLocked()
	return nil
}

// Delete removes the object stored under key (no-op when absent).
func (s *Store) Delete(key string) error {
	path, err := s.path(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fs.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cas: %w", err)
	}
	syncDir(s.fs, filepath.Dir(path))
	s.removeIndexLocked(key)
	return nil
}

// Len returns the number of indexed objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Bytes returns the total indexed payload bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters and gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Objects = s.ll.Len()
	st.Bytes = s.bytes
	return st
}

// GC applies the size/age policy now and returns how many objects were
// evicted. Put triggers it automatically; explicit calls are for
// long-running processes that want age eviction without write traffic.
func (s *Store) GC() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gcLocked()
}

// gcLocked evicts expired then least-recently-accessed objects until the
// policy is satisfied; callers hold s.mu.
func (s *Store) gcLocked() int {
	evicted := 0
	if s.maxAge > 0 {
		cutoff := s.now().Add(-s.maxAge)
		for back := s.ll.Back(); back != nil; {
			e := back.Value.(*entry)
			if !e.atime.Before(cutoff) {
				break
			}
			prev := back.Prev()
			s.evictLocked(back)
			evicted++
			back = prev
		}
	}
	if s.maxBytes > 0 {
		for s.bytes > s.maxBytes && s.ll.Len() > 0 {
			s.evictLocked(s.ll.Back())
			evicted++
		}
	}
	return evicted
}

// evictLocked removes one entry and its file; callers hold s.mu. The
// file remove is best-effort: an unremovable file (immutable bit, dying
// media) must not wedge GC, so the entry leaves the index either way —
// the next scan re-adopts whatever actually survived on disk.
func (s *Store) evictLocked(el *list.Element) {
	e := el.Value.(*entry)
	if path, err := s.path(e.key); err == nil {
		s.fs.Remove(path)
		syncDir(s.fs, filepath.Dir(path))
	}
	s.ll.Remove(el)
	delete(s.index, e.key)
	s.bytes -= e.size
	s.stats.Evicted++
}

// removeIndexLocked drops a key from the index (the file is already
// gone); callers hold s.mu.
func (s *Store) removeIndexLocked(key string) {
	if el, ok := s.index[key]; ok {
		s.bytes -= el.Value.(*entry).size
		s.ll.Remove(el)
		delete(s.index, key)
	}
}

// path maps a key to its shard path, validating the key shape so that a
// malformed key can never escape the objects tree.
func (s *Store) path(key string) (string, error) {
	hex, ok := strings.CutPrefix(key, "sha256:")
	if !ok || len(hex) != 64 || !isLowerHex(hex) {
		return "", fmt.Errorf("cas: malformed key %q (want sha256:<64 lowercase hex digits>)", key)
	}
	return filepath.Join(s.dir, "objects", hex[:2], hex[2:]+objExt), nil
}

// keyFromPath is path's inverse, used by the scan.
func keyFromPath(root, path string) (string, bool) {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return "", false
	}
	shard, file := filepath.Split(filepath.ToSlash(rel))
	shard = strings.TrimSuffix(shard, "/")
	file, ok := strings.CutSuffix(file, objExt)
	if !ok || len(shard) != 2 || len(file) != 62 || !isLowerHex(shard) || !isLowerHex(file) {
		return "", false
	}
	return "sha256:" + shard + file, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// errCorrupt marks an envelope that was read and failed validation: short
// header or payload, bad magic, implausible length, trailing bytes or a
// digest mismatch. Only such an object is proven bad and may be deleted;
// any other read error (a failed open, an I/O error) says nothing about
// the bytes on disk.
var errCorrupt = errors.New("cas: corrupt object")

// readObject reads and validates one envelope. A validation failure wraps
// errCorrupt; an error from the filesystem itself never does.
func readObject(fsys FS, path string) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	short := func(what string, err error) error {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: short %s", errCorrupt, what)
		}
		return fmt.Errorf("cas: read %s: %w", what, err)
	}
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, short("header", err)
	}
	if [8]byte(hdr[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic", errCorrupt)
	}
	n := binary.BigEndian.Uint64(hdr[8:16])
	if n > MaxObjectBytes {
		return nil, fmt.Errorf("%w: implausible length %d", errCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(f, payload); err != nil {
		return nil, short("payload", err)
	}
	// Trailing garbage after the payload means the envelope was not
	// written by us in one piece; reject it too.
	if extra, _ := f.Read(make([]byte, 1)); extra != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", errCorrupt)
	}
	if sha256.Sum256(payload) != [sha256.Size]byte(hdr[16:]) {
		return nil, fmt.Errorf("%w: digest mismatch", errCorrupt)
	}
	return payload, nil
}

// syncDir fsyncs a directory so a just-renamed (or just-removed) entry is
// durable; best-effort on filesystems that reject directory fsync.
func syncDir(fsys FS, dir string) {
	if d, err := fsys.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
