// Package store is a persistent, content-addressed result store: the
// warm layer underneath the experiment service's in-process memoization.
// Entries are keyed by the stable, versioned content key of a RunSpec
// (harness.RunSpec.Key) and hold that spec's serialized result row, so a
// restarted daemon answers previously computed configurations without
// re-simulating.
//
// Durability model, in layers:
//
//   - Crash safety: every Put writes to a same-directory temp file and
//     renames it into place, so a crash mid-write leaves either the old
//     entry or none — never a torn one.  Leftover temp files from a
//     crashed writer are swept on Open.
//   - Corruption detection: each entry embeds a SHA-256 checksum of its
//     payload under a magic header.  Get verifies it and treats any
//     mismatch (torn rename target, bit rot, truncation outside our
//     control) as a miss, deleting the bad file — the result store is a
//     cache, so the safe response to damage is always "recompute".
//   - Bounded size: the store holds at most a configured number of
//     payload bytes, evicting least-recently-used entries (access order
//     is approximated across restarts by file mtimes, exact within a
//     process).
//
// All methods are safe for concurrent use.  Reads are performed outside
// the index lock, so a Get racing an eviction of the same key simply
// misses.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// magic heads every entry file; the version digit is bumped with any
// incompatible layout change, orphaning (and eventually evicting) old
// files rather than misreading them.
const magic = "svmstore1\n"

// suffix names committed entry files; tmpPattern names in-flight writes.
const (
	suffix     = ".res"
	tmpPattern = ".tmp-*"
)

// Stats counts store traffic.  The JSON tags are the /metrics wire
// names of the svmd experiment service.
type Stats struct {
	// Hits and Misses count Get outcomes; Puts counts committed writes.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
	// Evictions counts entries removed by the LRU size bound, Corrupt
	// the entries dropped by checksum/format verification.
	Evictions int64 `json:"evictions"`
	Corrupt   int64 `json:"corrupt"`
	// Entries and Bytes describe the current resident set (payload
	// bytes, excluding the fixed per-entry header).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// HitRatio reports Hits / (Hits + Misses), 0 when idle.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type entry struct {
	key  string
	size int64
	elem *list.Element
}

// Store is an on-disk content-addressed cache.  Zero value is not
// usable; construct with Open.
type Store struct {
	dir string
	max int64
	log *slog.Logger

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // front = most recently used; values are *entry
	bytes   int64

	hits, misses, puts, evictions, corrupt int64
}

// SetLogger installs a structured logger for the store's exceptional
// paths — corrupt entries dropped as misses, LRU evictions.  A nil
// logger (the default) disables logging entirely; the hot Get/Put
// paths never log.
func (s *Store) SetLogger(l *slog.Logger) {
	s.mu.Lock()
	s.log = l
	s.mu.Unlock()
}

// Open loads (creating if necessary) the store rooted at dir, bounded
// to maxBytes of payload (<= 0 means 1 GiB).  Pre-existing entries are
// indexed oldest-first by modification time, so LRU order approximately
// survives restarts; leftover temp files from crashed writers are
// removed.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		max:     maxBytes,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	type found struct {
		key   string
		size  int64
		mtime time.Time
	}
	var scan []found
	for _, de := range des {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if ok, _ := filepath.Match(tmpPattern, name); ok {
			// A writer died mid-Put; its temp file is garbage.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, suffix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		size := info.Size() - int64(len(magic)) - sha256.Size*2 - 1
		if size < 0 {
			// Too short to even hold a header: committed garbage.
			os.Remove(filepath.Join(dir, name))
			s.corrupt++
			continue
		}
		scan = append(scan, found{
			key:   strings.TrimSuffix(name, suffix),
			size:  size,
			mtime: info.ModTime(),
		})
	}
	sort.Slice(scan, func(i, j int) bool { return scan[i].mtime.Before(scan[j].mtime) })
	for _, f := range scan {
		e := &entry{key: f.key, size: f.size}
		e.elem = s.lru.PushFront(e)
		s.entries[f.key] = e
		s.bytes += f.size
	}
	s.mu.Lock()
	s.evictLocked(nil)
	s.mu.Unlock()
	return s, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a key to its entry file.  Keys are content hashes
// ("v1-<hex>"), but harden against anything path-like anyway.
func (s *Store) path(key string) string {
	clean := make([]byte, 0, len(key))
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			clean = append(clean, c)
		default:
			clean = append(clean, '_')
		}
	}
	return filepath.Join(s.dir, string(clean)+suffix)
}

// Has reports whether key is resident, without reading the payload or
// verifying its checksum — a stat-only probe for routing decisions
// (the cluster coordinator asks "could I answer this locally?" before
// paying a full Get's read + decode).  A file too short to hold even
// the entry header is committed garbage: Has drops it and reports a
// miss, exactly as Get would have.  Content-level corruption (bit rot
// under an intact length) is only caught by Get's checksum; Has may
// answer true for such an entry, so callers must still treat the
// follow-up Get as fallible.  Has does not touch hit/miss counters or
// LRU recency: probing is not use.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	_, ok := s.entries[key]
	s.mu.Unlock()
	if !ok {
		return false
	}
	info, err := os.Stat(s.path(key))
	if err != nil || info.Size() < int64(len(magic))+sha256.Size*2+1 {
		// Vanished or truncated below the header: treat like Get's
		// corrupt path so the index stops advertising it.
		s.dropCorrupt(key)
		return false
	}
	return true
}

// Get returns the payload stored under key.  Any verification failure
// — missing file, bad magic, checksum mismatch, truncation — counts as
// a miss (corrupt files are deleted).
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if !ok {
		s.miss()
		return nil, false
	}

	// Read outside the lock: racing an eviction of this key just misses.
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		s.miss()
		return nil, false
	}
	payload, ok := decode(raw)
	if !ok {
		s.dropCorrupt(key)
		s.miss()
		return nil, false
	}
	// Freshen mtime (best effort) so LRU order survives restarts.
	now := time.Now()
	os.Chtimes(s.path(key), now, now)
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return payload, true
}

// Put stores payload under key, evicting least-recently-used entries if
// the byte bound is exceeded.  Re-putting an existing key rewrites it.
func (s *Store) Put(key string, payload []byte) error {
	tmp, err := os.CreateTemp(s.dir, tmpPattern)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename

	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	buf.Grow(len(magic) + sha256.Size*2 + 1 + len(payload))
	buf.WriteString(magic)
	buf.WriteString(hex.EncodeToString(sum[:]))
	buf.WriteByte('\n')
	buf.Write(payload)
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	// Flush to stable storage before the rename publishes the entry, so
	// a committed file is never a torn one after power loss.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		return fmt.Errorf("store: %w", err)
	}

	size := int64(len(payload))
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.bytes += size - e.size
		e.size = size
		s.lru.MoveToFront(e.elem)
	} else {
		e := &entry{key: key, size: size}
		e.elem = s.lru.PushFront(e)
		s.entries[key] = e
		s.bytes += size
	}
	s.puts++
	s.evictLocked(s.entries[key])
	s.mu.Unlock()
	return nil
}

// evictLocked removes least-recently-used entries until the byte bound
// holds, never evicting keep (the entry just written) so a single
// oversized entry still resides.  Caller holds s.mu.
func (s *Store) evictLocked(keep *entry) {
	for s.bytes > s.max {
		back := s.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		if e == keep {
			return // only the freshly written entry remains
		}
		s.removeLocked(e)
		s.evictions++
		os.Remove(s.path(e.key))
		if s.log != nil {
			s.log.Debug("store: evicted LRU entry", "key", e.key, "bytes", e.size)
		}
	}
}

func (s *Store) removeLocked(e *entry) {
	s.lru.Remove(e.elem)
	delete(s.entries, e.key)
	s.bytes -= e.size
}

// dropCorrupt forgets and deletes a damaged entry.
func (s *Store) dropCorrupt(key string) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.removeLocked(e)
	}
	s.corrupt++
	l := s.log
	s.mu.Unlock()
	os.Remove(s.path(key))
	if l != nil {
		l.Warn("store: dropping corrupt entry", "key", key)
	}
}

func (s *Store) miss() {
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
}

// Len reports the number of resident entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Puts: s.puts,
		Evictions: s.evictions, Corrupt: s.corrupt,
		Entries: len(s.entries), Bytes: s.bytes,
	}
}

// decode verifies an entry file's magic and checksum, returning the
// payload.
func decode(raw []byte) ([]byte, bool) {
	if len(raw) < len(magic)+sha256.Size*2+1 {
		return nil, false
	}
	if string(raw[:len(magic)]) != magic {
		return nil, false
	}
	hexSum := raw[len(magic) : len(magic)+sha256.Size*2]
	if raw[len(magic)+sha256.Size*2] != '\n' {
		return nil, false
	}
	payload := raw[len(magic)+sha256.Size*2+1:]
	sum := sha256.Sum256(payload)
	return payload, hex.EncodeToString(sum[:]) == string(hexSum)
}
