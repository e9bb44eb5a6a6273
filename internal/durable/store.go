package durable

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
)

// Typed store errors; classify with errors.Is.
var (
	// ErrNotFound reports a key with no committed entry on disk. It is
	// engine.ErrNotFound, the one miss of every result store tier.
	ErrNotFound = engine.ErrNotFound
	// ErrCorrupt reports an entry that failed validation and was moved to
	// quarantine; the caller should recompute. Every ErrCorrupt also
	// matches ErrNotFound, so single-branch callers treat it as a miss.
	ErrCorrupt = fmt.Errorf("durable: entry corrupt: %w", ErrNotFound)
)

const (
	// entryVersion is the on-disk entry format version.
	entryVersion = 1
	// entryPrefix names committed entry files: entryPrefix + hex SHA-256 of
	// the key, so any key — including ones with path separators — maps to a
	// fixed-width safe file name.
	entryPrefix = "e-"
	// tmpPrefix names in-flight temp files; a leftover one is a torn write
	// from a crash and is quarantined at Open.
	tmpPrefix = ".tmp-"
	// quarantineDir collects invalid files for post-mortem inspection;
	// nothing under it is ever served.
	quarantineDir = "quarantine"
)

// DefaultMaxEntries bounds a DiskStore that sets no explicit limit.
const DefaultMaxEntries = 4096

// StoreOptions configures a DiskStore. The zero value means: bound of
// DefaultMaxEntries entries, no byte bound, fsync on every commit.
type StoreOptions struct {
	// MaxEntries bounds the committed entry count; the least recently used
	// entries are evicted (deterministically — see Open) past it. Values
	// <= 0 mean DefaultMaxEntries.
	MaxEntries int
	// MaxBytes, when positive, additionally bounds the total committed
	// file bytes.
	MaxBytes int64
	// NoFsync skips the fsync of entry files and the directory on commit.
	// Faster, but a crash can then tear the most recent writes — they are
	// detected and quarantined at the next Open, never served corrupt, so
	// the trade is durability of the tail, not integrity.
	NoFsync bool
}

// entryHeader is the first line of an entry file (JSON, then '\n', then
// exactly Len payload bytes). The payload's SHA-256 makes every entry
// self-validating: truncation changes the length, bit flips change the
// digest, and a header that does not parse marks a torn write.
type entryHeader struct {
	V      int    `json:"v"`
	Key    string `json:"key"`
	Len    int64  `json:"len"`
	SHA256 string `json:"sha256"`
}

// dentry is one committed entry in the in-memory LRU index.
type dentry struct {
	key  string
	file string // base name under dir
	size int64  // total file bytes (header line + payload)
}

// DiskStore is a disk-backed content-addressed byte store: one
// self-checksummed file per key, atomic commits, deterministic LRU
// eviction. It implements engine.Blobs and is safe for concurrent use. See
// the package comment and docs/DURABILITY.md.
type DiskStore struct {
	dir  string
	opts StoreOptions

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64

	hits        atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	evictions   atomic.Int64
	corrupt     atomic.Int64 // committed entries quarantined
	tornTemps   int64        // torn temp files quarantined at Open
	quarantined atomic.Int64 // total files moved to quarantine
}

// StoreStats is a point-in-time account of a DiskStore for /v1/debug.
type StoreStats struct {
	Dir         string `json:"dir"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	MaxEntries  int    `json:"max_entries"`
	MaxBytes    int64  `json:"max_bytes,omitempty"`
	Hits        int64  `json:"hits"`
	Misses      int64  `json:"misses"`
	Puts        int64  `json:"puts"`
	Evictions   int64  `json:"evictions"`
	Corrupt     int64  `json:"corrupt"`
	TornTemps   int64  `json:"torn_temps"`
	Quarantined int64  `json:"quarantined"`
}

// Open opens (creating if needed) the store rooted at dir and recovers its
// index from disk: leftover temp files (torn writes from a crash) are
// quarantined, committed entries have their headers validated — a
// malformed header or a length mismatch quarantines the entry up front,
// while bit flips inside the payload are caught by the checksum on Get —
// and the LRU index is rebuilt ordered by file modification time with key
// order as the deterministic tie-break, so two opens over the same files
// evict in the same order.
func Open(dir string, opts StoreOptions) (*DiskStore, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = DefaultMaxEntries
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("durable: open store: %w", err)
	}
	s := &DiskStore{
		dir:   dir,
		opts:  opts,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: open store: %w", err)
	}
	type scanned struct {
		e     dentry
		mtime int64
	}
	var found []scanned
	for _, de := range des {
		name := de.Name()
		switch {
		case strings.HasPrefix(name, tmpPrefix):
			// A torn write: the process died between CreateTemp and the
			// rename. The entry was never committed, so nothing is lost —
			// move it aside for inspection.
			s.quarantine(name)
			s.tornTemps++
		case strings.HasPrefix(name, entryPrefix):
			h, size, err := s.readHeader(name)
			if err != nil || size != entryFileSize(h, name) {
				s.quarantine(name)
				s.corrupt.Add(1)
				cDiskCorrupt.Inc()
				continue
			}
			info, err := de.Info()
			if err != nil {
				s.quarantine(name)
				continue
			}
			found = append(found, scanned{
				e:     dentry{key: h.Key, file: name, size: size},
				mtime: info.ModTime().UnixNano(),
			})
		}
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].mtime != found[j].mtime {
			return found[i].mtime < found[j].mtime
		}
		return found[i].e.key < found[j].e.key
	})
	for _, f := range found {
		// Oldest first, each pushed to the front: the newest file ends up
		// most recently used.
		e := f.e
		s.items[e.key] = s.ll.PushFront(&e)
		s.bytes += e.size
	}
	s.mu.Lock()
	s.evictOver()
	s.mu.Unlock()
	return s, nil
}

// fileName maps a key to its fixed-width entry file name.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return entryPrefix + hex.EncodeToString(sum[:])
}

// entryFileSize is the exact committed size of an entry: its header line,
// the newline, and the payload. The header length is recovered by
// re-marshalling — entryHeader marshals deterministically, and writers
// always commit the marshalled form.
func entryFileSize(h entryHeader, _ string) int64 {
	line, err := json.Marshal(h)
	if err != nil {
		return -1
	}
	return int64(len(line)) + 1 + h.Len
}

// readHeader reads and parses the header line of the named entry file,
// returning the parsed header and the file's actual size.
func (s *DiskStore) readHeader(name string) (entryHeader, int64, error) {
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return entryHeader{}, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return entryHeader{}, 0, err
	}
	r := bufio.NewReader(f)
	line, err := r.ReadBytes('\n')
	if err != nil {
		return entryHeader{}, info.Size(), fmt.Errorf("durable: entry %s: unterminated header: %w", name, err)
	}
	var h entryHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return entryHeader{}, info.Size(), fmt.Errorf("durable: entry %s: bad header: %w", name, err)
	}
	if h.V != entryVersion || h.Len < 0 {
		return entryHeader{}, info.Size(), fmt.Errorf("durable: entry %s: unsupported header", name)
	}
	return h, info.Size(), nil
}

// quarantine moves the named file into the quarantine directory (replacing
// any previous occupant of the same name). Failures fall back to removal:
// an invalid file must never stay where it could be read as an entry.
func (s *DiskStore) quarantine(name string) {
	src := filepath.Join(s.dir, name)
	dst := filepath.Join(s.dir, quarantineDir, name)
	os.Remove(dst)
	if os.Rename(src, dst) != nil {
		os.Remove(src)
	}
	s.quarantined.Add(1)
}

// Get implements engine.Blobs: it returns the payload committed under key.
// A missing entry returns ErrNotFound; an entry that fails validation
// (length or checksum) is quarantined and returns ErrCorrupt (which also
// matches ErrNotFound) so the caller recomputes instead of consuming
// corrupt bytes.
func (s *DiskStore) Get(_ context.Context, key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		s.misses.Add(1)
		return nil, fmt.Errorf("durable: %q: %w", key, ErrNotFound)
	}
	e := el.Value.(*dentry)
	data, err := os.ReadFile(filepath.Join(s.dir, e.file))
	if err != nil {
		s.dropLocked(el, e)
		s.misses.Add(1)
		return nil, fmt.Errorf("durable: %q: %w: %w", key, ErrNotFound, err)
	}
	payload, err := validateEntry(key, data)
	if err != nil {
		// Quarantine-and-recompute: the entry is moved aside (never served)
		// and reported corrupt so the caller recomputes it.
		s.dropLocked(el, e)
		s.quarantine(e.file)
		s.corrupt.Add(1)
		cDiskCorrupt.Inc()
		s.misses.Add(1)
		return nil, fmt.Errorf("durable: %q: %w: %w", key, ErrCorrupt, err)
	}
	s.ll.MoveToFront(el)
	s.hits.Add(1)
	cDiskHits.Inc()
	return payload, nil
}

// validateEntry checks a raw entry file against its self-describing
// header: key match, exact payload length, and SHA-256 digest.
func validateEntry(key string, data []byte) ([]byte, error) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return nil, errors.New("unterminated header")
	}
	var h entryHeader
	if err := json.Unmarshal(data[:i+1], &h); err != nil {
		return nil, fmt.Errorf("bad header: %w", err)
	}
	payload := data[i+1:]
	if h.Key != key {
		return nil, fmt.Errorf("key mismatch: entry holds %q", h.Key)
	}
	if int64(len(payload)) != h.Len {
		return nil, fmt.Errorf("truncated: %d of %d payload bytes", len(payload), h.Len)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.SHA256 {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// dropLocked removes an entry from the index (not the disk); callers hold
// the mutex.
func (s *DiskStore) dropLocked(el *list.Element, e *dentry) {
	s.ll.Remove(el)
	delete(s.items, e.key)
	s.bytes -= e.size
}

// Put implements engine.Blobs: it commits data under key atomically. The
// entry is assembled in a temp file in the same directory and renamed into
// place, so readers (and the next Open) see either the previous entry or
// the complete new one, never a partial write. Under the default fsync
// policy the file is synced before the rename and the directory after it;
// with NoFsync a crash can lose the tail, but validation still quarantines
// anything torn. Entries past the configured bounds are evicted
// least-recently-used.
func (s *DiskStore) Put(_ context.Context, key string, data []byte) error {
	h := entryHeader{V: entryVersion, Key: key, Len: int64(len(data))}
	sum := sha256.Sum256(data)
	h.SHA256 = hex.EncodeToString(sum[:])
	line, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("durable: put %q: %w", key, err)
	}

	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("durable: put %q: %w", key, err)
	}
	tmp := f.Name()
	commit := func() error {
		if _, err := f.Write(line); err != nil {
			return err
		}
		if _, err := f.Write([]byte{'\n'}); err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			return err
		}
		if !s.opts.NoFsync {
			if err := f.Sync(); err != nil {
				return err
			}
		}
		return f.Close()
	}
	if err := commit(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: put %q: %w", key, err)
	}
	name := fileName(key)
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: put %q: %w", key, err)
	}
	if !s.opts.NoFsync {
		syncDir(s.dir)
	}

	size := int64(len(line)) + 1 + int64(len(data))
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*dentry)
		s.bytes += size - e.size
		e.size = size
		if e.file != name {
			// An index recovered from foreign-named files (hand-copied
			// entries) can disagree with the canonical name; the rewrite
			// re-canonicalises it.
			os.Remove(filepath.Join(s.dir, e.file))
			e.file = name
		}
		s.ll.MoveToFront(el)
	} else {
		s.items[key] = s.ll.PushFront(&dentry{key: key, file: name, size: size})
		s.bytes += size
	}
	s.evictOver()
	s.mu.Unlock()
	s.puts.Add(1)
	return nil
}

// evictOver deletes least-recently-used entries until the store is within
// its bounds; callers hold the mutex. Eviction order is a pure function of
// the operation sequence since Open (and Open's own mtime+key order), so a
// fixed workload always evicts the same entries.
func (s *DiskStore) evictOver() {
	for len(s.items) > s.opts.MaxEntries || (s.opts.MaxBytes > 0 && s.bytes > s.opts.MaxBytes && len(s.items) > 0) {
		back := s.ll.Back()
		if back == nil {
			return
		}
		e := back.Value.(*dentry)
		s.dropLocked(back, e)
		os.Remove(filepath.Join(s.dir, e.file))
		s.evictions.Add(1)
	}
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Stats snapshots the store's counters and occupancy.
func (s *DiskStore) Stats() StoreStats {
	s.mu.Lock()
	entries, byt := len(s.items), s.bytes
	s.mu.Unlock()
	return StoreStats{
		Dir:         s.dir,
		Entries:     entries,
		Bytes:       byt,
		MaxEntries:  s.opts.MaxEntries,
		MaxBytes:    s.opts.MaxBytes,
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		Evictions:   s.evictions.Load(),
		Corrupt:     s.corrupt.Load(),
		TornTemps:   s.tornTemps,
		Quarantined: s.quarantined.Load(),
	}
}
