package build

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"knit/internal/compile"
	"knit/internal/knit/link"
	"knit/internal/obj"
)

// Cache is a content-addressed store of compiled translation units,
// shared across builds (and across goroutines within one build). A
// unit instance's compiled object depends only on its renamed sources
// and the compiler options, so the cache key is a hash over exactly
// that, taken without printing the renamed file: compile.Options.Key(),
// the file's name, the source text it was parsed from, and the renames
// elaboration applied to the identifiers it declares or references
// (link.FileOrigin) — which encode the resolved import/export wiring
// via the __kN suffixes and provider names. A flattened region is keyed
// by the options and the name, text and renames of each file of its
// ordered instances, so a warm build skips both the merge and the
// compile.
//
// Lookups are single-flight: the first build to miss on a key compiles
// it (merging first, for a region), and builds that miss on the key
// meanwhile wait for that object instead of compiling it again. A failed
// compile is not stored; its waiters wake and compile for themselves,
// so each build reports its own error.
//
// Beside the objects, the cache holds the builds' front end
// (link.FrontEnd): every unit file, C source and assembly source a
// build on it parsed, keyed by file name and text. Builds sharing a
// cache therefore parse each distinct file once — a warm rebuild
// parses nothing, and the assembler's candidate builds parse only the
// generated assembly unit. Parsed trees are kept in memory only, even
// for a cache opened on a directory.
//
// Every build runs on a cache, its own when Options.Cache is nil, and
// its Result keeps it: dynamic loads, fallback swaps and
// reconfiguration on the Result's machines parse and compile through
// it, so a module loaded on many machines is parsed and compiled once.
//
// Invalidation is automatic: any change to a unit's sources, to its
// wiring (which renames identifiers), or to the optimizer settings
// changes the key, and the stale entry is simply never looked up
// again. Entries are immutable and shared: a build only reads its
// objects, and the image's object the linker (obj.Append) makes from
// them shares their functions and data read-only, copying only what it
// rebases, so no build can change another's entries.
type Cache struct {
	dir   string // optional disk backing; "" = memory only
	front link.FrontEnd

	mu        sync.Mutex
	mem       map[string]*obj.File
	compiling map[string]chan struct{} // closed when the key's compile ends
	hits      int
	misses    int
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
	Hits    int // lookups served an object without compiling it
	Misses  int // lookups that compiled
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

// object returns the object stored under key, and whether it was a hit.
// On a miss it claims the key, then reads it from disk or runs compile
// and stores the result; a lookup that arrives while the key is claimed
// waits for that result. The returned object is shared: read it only.
func (c *Cache) object(key string, compile func() (*obj.File, error)) (*obj.File, bool, error) {
	c.mu.Lock()
	for {
		if o, ok := c.mem[key]; ok {
			c.hits++
			c.mu.Unlock()
			return o, true, nil
		}
		done, ok := c.compiling[key]
		if !ok {
			break
		}
		c.mu.Unlock()
		<-done // a failed compile stores nothing, so look again
		c.mu.Lock()
	}
	done := make(chan struct{})
	if c.compiling == nil {
		c.compiling = map[string]chan struct{}{}
	}
	c.compiling[key] = done
	c.mu.Unlock()

	o := c.readDisk(key)
	hit := o != nil
	var err error
	if !hit {
		o, err = compile()
	}
	c.mu.Lock()
	delete(c.compiling, key)
	if err == nil {
		c.mem[key] = o
	}
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	close(done)
	if err == nil && !hit && c.dir != "" {
		c.writeDisk(key, o)
	}
	return o, hit, err
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

// readDisk loads one entry from the backing directory; no directory,
// and any failure — open error, short file, digest mismatch,
// undecodable payload — is a miss (the cache is best-effort and
// self-healing: the entry is simply rewritten on the next store).
func (c *Cache) readDisk(key string) *obj.File {
	if c.dir == "" {
		return nil
	}
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

// fileKey is the content hash of one translation unit: the compiler
// configuration plus the file's name and origin, which together
// determine the instance-renamed source.
func fileKey(copts compile.Options, name string, src link.FileOrigin) string {
	b := append([]byte("file\x00"), copts.Key()...)
	b = appendFile(append(b, 0), name, src)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// regionKey is the content hash of a flattened region's compiled
// object: the compiler configuration plus every file of the region's
// ordered instances, framed per instance — exactly what the merge reads.
func regionKey(copts compile.Options, region []*link.Instance) string {
	b := append([]byte("flat\x00"), copts.Key()...)
	b = strconv.AppendInt(append(b, 0), int64(len(region)), 10)
	for _, inst := range region {
		b = strconv.AppendInt(append(b, 0), int64(len(inst.Files)), 10)
		for i, f := range inst.Files {
			b = appendFile(append(b, 0), f.Name, inst.Origins[i])
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// appendFile frames one file's name, source text and renames (sorted
// by identifier) onto b.
func appendFile(b []byte, name string, src link.FileOrigin) []byte {
	b = append(append(b, name...), 0)
	b = strconv.AppendInt(b, int64(len(src.Text)), 10)
	b = append(append(b, 0), src.Text...)
	b = append(strconv.AppendInt(b, int64(len(src.Renames)), 10), 0)
	ids := make([]string, 0, len(src.Renames))
	for id := range src.Renames {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		b = append(append(b, id...), 0)
		b = append(append(b, src.Renames[id]...), 0)
	}
	return b
}
