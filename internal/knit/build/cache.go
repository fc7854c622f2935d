package build

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"knit/internal/cmini"
	"knit/internal/compile"
	"knit/internal/knit/flatten"
	"knit/internal/knit/link"
	"knit/internal/obj"
)

// Cache is a content-addressed store of compiled translation units,
// shared across builds (and across goroutines within one build). A
// unit instance's compiled object depends only on its renamed sources
// and the compiler options, so the cache key is a hash over exactly
// that: the instance-renamed source text — which already encodes the
// resolved import/export wiring via the __kN suffixes and provider
// names — plus compile.Options.Key(). Flattened regions are keyed by
// flatten.Fingerprint over the region's ordered instance sources, so a
// warm build skips both the merge and the compile.
//
// Beside the objects, the cache holds the builds' front end
// (link.FrontEnd): every unit file, C source and assembly source a
// build on it parsed, keyed by file name and text. Builds sharing a
// cache therefore parse each distinct file once — a warm rebuild
// parses nothing, and the assembler's candidate builds parse only the
// generated assembly unit. Parsed trees are kept in memory only, even
// for a cache opened on a directory.
//
// Invalidation is automatic: any change to a unit's sources, to its
// wiring (which renames identifiers), or to the optimizer settings
// changes the key, and the stale entry is simply never looked up
// again. Entries are immutable: lookups and stores of objects
// deep-copy, and parsed trees are only read or cloned, so no build can
// mutate another's entries.
type Cache struct {
	dir   string // optional disk backing; "" = memory only
	front link.FrontEnd

	mu     sync.Mutex
	mem    map[string]*obj.File
	hits   int
	misses int
}

// NewCache returns an empty in-memory cache.
func NewCache() *Cache {
	return &Cache{mem: map[string]*obj.File{}}
}

// OpenCache returns a cache backed by dir (created if needed): entries
// are written as gob-encoded object files named by their content hash,
// so the cache survives across processes — this is what cmd/knit's
// -cache flag opens. Reads fall back to disk on a memory miss;
// unreadable or corrupt entries are treated as misses.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("knit: cache: %w", err)
	}
	return &Cache{dir: dir, mem: map[string]*obj.File{}}, nil
}

// CacheStats reports cache effectiveness since the cache was created.
type CacheStats struct {
	Hits    int // lookups served from the cache
	Misses  int // lookups that had to compile
	Entries int // distinct objects currently held in memory
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.mem)}
}

// FrontEnd returns the parsed sources every build on c shares.
func (c *Cache) FrontEnd() *link.FrontEnd { return &c.front }

// lookup returns a private copy of the object stored under key.
func (c *Cache) lookup(key string) (*obj.File, bool) {
	c.mu.Lock()
	o, ok := c.mem[key]
	if !ok && c.dir != "" {
		o = c.readDisk(key)
		if o != nil {
			c.mem[key] = o
			ok = true
		}
	}
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	return o.Clone(), true
}

// store records o under key. The cache keeps its own copy.
func (c *Cache) store(key string, o *obj.File) {
	cp := o.Clone()
	c.mu.Lock()
	c.mem[key] = cp
	c.mu.Unlock()
	if c.dir != "" {
		c.writeDisk(key, cp)
	}
}

func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key+".knitobj")
}

// Disk entry framing: a sha256 digest of the gob payload, then the
// payload. The digest makes every form of on-disk damage — truncation,
// bit flips, a half-written file from a crashed writer — a detectable
// integrity failure, and therefore a cache miss rather than a poisoned
// build. (gob alone would accept some corrupted inputs.)
const diskDigestLen = sha256.Size

// readDisk loads one entry from the backing directory; any failure —
// open error, short file, digest mismatch, undecodable payload — is a
// miss (the cache is best-effort and self-healing: the entry is simply
// rewritten on the next store).
func (c *Cache) readDisk(key string) *obj.File {
	data, err := os.ReadFile(c.entryPath(key))
	if err != nil || len(data) < diskDigestLen {
		return nil
	}
	payload := data[diskDigestLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[:diskDigestLen]) {
		return nil
	}
	var o obj.File
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&o); err != nil {
		return nil
	}
	return &o
}

// writeDisk persists one entry atomically (temp file + rename), so a
// concurrent reader never sees a half-written object. Entries are
// content-addressed, so two processes racing the same key write
// identical bytes: whoever renames last simply replaces the file with
// an equal one, and a lost rename (some platforms refuse to replace an
// existing file) still leaves a valid entry behind. Called with c.mu
// released; the entry is immutable once stored.
func (c *Cache) writeDisk(key string, o *obj.File) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(o); err != nil {
		return
	}
	sum := sha256.Sum256(buf.Bytes())
	tmp, err := os.CreateTemp(c.dir, "tmp-*.knitobj")
	if err != nil {
		return
	}
	if _, err := tmp.Write(sum[:]); err == nil {
		_, err = tmp.Write(buf.Bytes())
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.entryPath(key)); err != nil {
		// A concurrent writer may have won the rename; their entry has
		// the same content, so losing the race is success.
		os.Remove(tmp.Name())
	}
}

// fileCacheKey is the content hash of one translation unit: the
// compiler configuration plus the (instance-renamed) source.
func fileCacheKey(copts compile.Options, f *cmini.File) string {
	h := sha256.New()
	io.WriteString(h, "file\x00")
	io.WriteString(h, copts.Key())
	h.Write([]byte{0})
	io.WriteString(h, f.Name)
	h.Write([]byte{0})
	io.WriteString(h, cmini.Print(f))
	return hex.EncodeToString(h.Sum(nil))
}

// regionCacheKey is the content hash of a flattened region's compiled
// object: the compiler configuration plus the region fingerprint.
func regionCacheKey(copts compile.Options, region []*link.Instance) string {
	h := sha256.New()
	io.WriteString(h, "flat\x00")
	io.WriteString(h, copts.Key())
	h.Write([]byte{0})
	io.WriteString(h, flatten.Fingerprint(region))
	return hex.EncodeToString(h.Sum(nil))
}
