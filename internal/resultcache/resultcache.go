// Package resultcache is the sweep service's content-addressed result
// store: cell reports keyed by the canonical cell key (api.CellKey —
// SHA-256 over code version, canonicalized config, and the workload and
// seed of a simulation cell or the program and budget of a
// check cell), held on disk with an LRU size cap.
//
// The store is deliberately paranoid in both directions:
//
//   - Keys address *inputs*: two sweeps that spell the same simulation
//     differently share an entry, and any input that changes simulated
//     behavior — including the code version — selects a different one.
//   - Payloads are verified on read: every entry carries the SHA-256 of
//     its payload, recomputed on Get. A corrupted entry is rejected,
//     deleted, and reported as a miss, so a bit-rotted cache can cost a
//     re-simulation but can never serve wrong bytes. The simulator's
//     determinism makes the end-to-end wall cheap: a hit must be
//     byte-identical to what a fresh run would produce, which the
//     golden harness asserts.
//
// A Cache is safe for concurrent use by one process. Multi-process
// sharing of a directory is not supported (the coordinator owns the
// cache; workers stay stateless).
package resultcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// header prefixes every entry file: format tag, payload digest,
// payload length. The digest is what Get verifies.
const headerFormat = "denovogpu-cas/v1 %s %d\n"

// CorruptError reports an entry whose payload no longer matches its
// recorded digest (or whose envelope is unreadable). The entry has
// been removed; callers should treat the Get as a miss.
type CorruptError struct {
	Key    string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("resultcache: entry %s corrupt: %s", e.Key, e.Reason)
}

// Stats is a snapshot of cache effectiveness counters.
type Stats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Puts           uint64 `json:"puts"`
	Evictions      uint64 `json:"evictions"`
	VerifyFailures uint64 `json:"verify_failures"`
	Entries        int    `json:"entries"`
	Bytes          int64  `json:"bytes"`
	MaxBytes       int64  `json:"max_bytes"`
}

type entry struct {
	key  string
	size int64 // payload + header bytes on disk
	elem *list.Element
}

// Cache is a disk-backed content-addressed store with LRU eviction.
type Cache struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // front = most recently used; values are *entry
	bytes   int64
	stats   Stats
}

// Open loads (or creates) a cache rooted at dir. maxBytes bounds the
// total on-disk size; <= 0 means unbounded. Existing entries are
// indexed by file modification time (most recent = most recently
// used); payloads are not verified here — verification happens on
// every read.
func Open(dir string, maxBytes int64) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Cache{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[string]*entry),
		lru:      list.New(),
	}
	type found struct {
		key   string
		size  int64
		mtime time.Time
	}
	var existing []found
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		key := filepath.Base(path)
		if !validKey(key) {
			return nil // foreign file; leave it alone
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		existing = append(existing, found{key, info.Size(), info.ModTime()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Oldest first, so the LRU front ends up the most recently used.
	sort.Slice(existing, func(i, j int) bool {
		if !existing[i].mtime.Equal(existing[j].mtime) {
			return existing[i].mtime.Before(existing[j].mtime)
		}
		return existing[i].key < existing[j].key
	})
	for _, f := range existing {
		e := &entry{key: f.key, size: f.size}
		e.elem = c.lru.PushFront(e)
		c.entries[f.key] = e
		c.bytes += f.size
	}
	c.evictLocked()
	return c, nil
}

// validKey reports whether key is a hex SHA-256 — everything else is
// rejected up front (and ignored on disk), which also keeps arbitrary
// path segments out of file operations.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, r := range key {
		if !strings.ContainsRune("0123456789abcdef", r) {
			return false
		}
	}
	return true
}

func (c *Cache) path(key string) string {
	// Two-level fan-out keeps directories small at production entry
	// counts.
	return filepath.Join(c.dir, key[:2], key)
}

// Get returns the payload stored under key and whether it was present.
// A present-but-corrupt entry is deleted and returned as a miss with a
// *CorruptError describing why.
func (c *Cache) Get(key string) ([]byte, bool, error) {
	if !validKey(key) {
		return nil, false, fmt.Errorf("resultcache: invalid key %q", key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, false, nil
	}
	data, err := os.ReadFile(c.path(key))
	payload, verr := verify(key, data, err)
	if verr != nil {
		c.removeLocked(e)
		c.stats.Misses++
		c.stats.VerifyFailures++
		return nil, false, verr
	}
	c.lru.MoveToFront(e.elem)
	now := time.Now()
	_ = os.Chtimes(c.path(key), now, now) // recency survives reopen; best-effort
	c.stats.Hits++
	return payload, true, nil
}

// verify parses an entry file and checks its digest.
func verify(key string, data []byte, readErr error) ([]byte, error) {
	if readErr != nil {
		return nil, &CorruptError{Key: key, Reason: readErr.Error()}
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, &CorruptError{Key: key, Reason: "missing envelope header"}
	}
	var digest string
	var size int64
	if _, err := fmt.Sscanf(string(data[:nl+1]), headerFormat, &digest, &size); err != nil {
		return nil, &CorruptError{Key: key, Reason: "malformed envelope header"}
	}
	payload := data[nl+1:]
	if int64(len(payload)) != size {
		return nil, &CorruptError{Key: key, Reason: fmt.Sprintf("payload is %d bytes, envelope says %d", len(payload), size)}
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != digest {
		return nil, &CorruptError{Key: key, Reason: "payload digest mismatch"}
	}
	return payload, nil
}

// Put stores payload under key (overwriting any previous entry) and
// evicts least-recently-used entries until the size cap holds. The
// write is atomic (temp file + rename): a crash can lose the entry but
// never leave a torn one a later Get could half-trust.
func (c *Cache) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("resultcache: invalid key %q", key)
	}
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf(headerFormat, hex.EncodeToString(sum[:]), len(payload))
	data := append([]byte(header), payload...)

	c.mu.Lock()
	defer c.mu.Unlock()
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}

	if old, ok := c.entries[key]; ok {
		c.bytes -= old.size
		old.size = int64(len(data))
		c.bytes += old.size
		c.lru.MoveToFront(old.elem)
	} else {
		e := &entry{key: key, size: int64(len(data))}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		c.bytes += e.size
	}
	c.stats.Puts++
	c.evictLocked()
	return nil
}

// evictLocked drops least-recently-used entries until the cap holds.
// The most recent entry always survives, even alone over the cap: a
// cache that cannot hold the result it was just asked to keep would
// thrash on every sweep.
func (c *Cache) evictLocked() {
	if c.maxBytes <= 0 {
		return
	}
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		oldest := c.lru.Back().Value.(*entry)
		c.removeLocked(oldest)
		c.stats.Evictions++
	}
}

func (c *Cache) removeLocked(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.bytes -= e.size
	_ = os.Remove(c.path(e.key))
}

// Len returns the number of entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.bytes
	s.MaxBytes = c.maxBytes
	return s
}
