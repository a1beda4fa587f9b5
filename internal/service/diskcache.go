package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// diskMagic is the on-disk format version header. Bumping it orphans all
// existing entries: files with any other first line are treated as
// foreign and reaped on the next lookup that maps to them.
const diskMagic = "semimatch-cache/v1"

// diskCache is the durable tier under the memory LRU: one flat directory
// of content-addressed entry files, each named by the SHA-256 of its
// cache key. There is no index to corrupt and no compaction to schedule —
// every entry stands alone, so a crash can at worst lose or garble the
// single entry being written, and a garbled entry is detected (version
// header + payload checksum + embedded key echo) and reaped on load.
//
// Writes are atomic: the entry is staged in a temp file in the same
// directory and renamed over the final name, so readers — including
// readers in a process that replaced this one — see either the old
// complete entry or the new complete entry, never a torn one. Entries are
// not fsynced; the checksum turns a torn page after power loss into a
// clean miss instead of a wrong answer.
//
// Each file's payload is the result's PeerEntry — the same form replicas
// exchange — with the cache key echoed, so a file reached through a hash
// collision or copied between stores is detected. The tier stores only
// complete, certificate-verified results, and get re-verifies through the
// caller's callback before serving, so a stale, corrupt or tampered file
// can never poison a response.
type diskCache struct {
	dir string

	hits      atomic.Uint64
	misses    atomic.Uint64
	writes    atomic.Uint64
	writeErrs atomic.Uint64
	reaped    atomic.Uint64
}

// newDiskCache opens (creating if needed) the durable tier rooted at dir.
// A directory that cannot be created is not fatal to the service — every
// subsequent write fails and is counted, and every lookup misses.
func newDiskCache(dir string) *diskCache {
	dc := &diskCache{dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		dc.writeErrs.Add(1)
	}
	return dc
}

// path maps a cache key to its entry file.
func (dc *diskCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dc.dir, hex.EncodeToString(sum[:])+".entry")
}

// put persists one result as its PeerEntry. Failures are counted, never
// fatal: the disk tier degrades to a smaller (or empty) warm set, not to
// wrong answers.
func (dc *diskCache) put(key string, res *Result) {
	payload, err := json.Marshal(entryOf(key, res))
	if err != nil {
		dc.writeErrs.Add(1)
		return
	}
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	buf.Grow(len(diskMagic) + 2*sha256.Size + len(payload) + 2)
	buf.WriteString(diskMagic)
	buf.WriteByte('\n')
	buf.WriteString(hex.EncodeToString(sum[:]))
	buf.WriteByte('\n')
	buf.Write(payload)

	tmp, err := os.CreateTemp(dc.dir, ".tmp-*")
	if err != nil {
		dc.writeErrs.Add(1)
		return
	}
	_, werr := tmp.Write(buf.Bytes())
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		dc.writeErrs.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), dc.path(key)); err != nil {
		os.Remove(tmp.Name())
		dc.writeErrs.Add(1)
		return
	}
	dc.writes.Add(1)
}

// get looks the key up, decodes and integrity-checks the entry, and hands
// it to admit (the service's certificate check), which builds the Result
// it serves. Any failure past "file not found" — bad version, bad
// checksum, undecodable payload, key mismatch, admission error — reaps
// the file and reports a miss, so the store self-heals under corruption
// instead of serving it.
func (dc *diskCache) get(key string, admit func(*PeerEntry) (*Result, error)) (*Result, bool) {
	p := dc.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		dc.misses.Add(1)
		return nil, false
	}
	var res *Result
	e, err := decodeDiskEntry(key, data)
	if err == nil {
		res, err = admit(e)
	}
	if err != nil {
		dc.misses.Add(1)
		if os.Remove(p) == nil {
			dc.reaped.Add(1)
		}
		return nil, false
	}
	dc.hits.Add(1)
	return res, true
}

// getRaw looks the key up with integrity checks only — no certificate
// revalidation — for serving peer replicas, which re-verify entries on
// their own side before admission (a cert.Verify here would be redundant
// work on this replica's serving path). Corrupt or foreign files are
// still reaped; the hit/miss counters are left untouched so peer-serving
// traffic cannot pollute this replica's own cache stats.
func (dc *diskCache) getRaw(key string) (*PeerEntry, bool) {
	p := dc.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	e, err := decodeDiskEntry(key, data)
	if err != nil {
		if os.Remove(p) == nil {
			dc.reaped.Add(1)
		}
		return nil, false
	}
	return e, true
}

// decodeDiskEntry parses and integrity-checks one entry file.
func decodeDiskEntry(key string, data []byte) (*PeerEntry, error) {
	rest, ok := bytes.CutPrefix(data, []byte(diskMagic+"\n"))
	if !ok {
		return nil, fmt.Errorf("service: disk entry: missing or unsupported version header")
	}
	sumHex, payload, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok {
		return nil, fmt.Errorf("service: disk entry: truncated before payload")
	}
	sum := sha256.Sum256(payload)
	if string(sumHex) != hex.EncodeToString(sum[:]) {
		return nil, fmt.Errorf("service: disk entry: payload checksum mismatch")
	}
	var e PeerEntry
	if err := json.Unmarshal(payload, &e); err != nil {
		return nil, fmt.Errorf("service: disk entry: %w", err)
	}
	if e.Key != key {
		return nil, fmt.Errorf("service: disk entry: key mismatch (hash collision or relocated file)")
	}
	return &e, nil
}

// counters snapshots the tier's monitoring counters.
func (dc *diskCache) counters() (hits, misses, writes, writeErrs, reaped uint64) {
	return dc.hits.Load(), dc.misses.Load(), dc.writes.Load(), dc.writeErrs.Load(), dc.reaped.Load()
}
