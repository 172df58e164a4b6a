package lab

// The job manifest makes matrix runs resumable. It is a versioned
// JSON-lines file — a {"stms_manifest":2} header, then one entry per
// cell — appended and fsync'd as cells progress. Two entry shapes
// exist:
//
//	{"key":..., "results":...}  a completed cell (preloaded into the
//	                            session memo, so a restarted
//	                            coordinator skips it)
//	{"key":..., "ckpt":...}     a partial cell: the coordinator
//	                            exchanged a checkpoint for it before
//	                            dying. A restarted session fetches the
//	                            checkpoint by that address and resumes
//	                            the cell mid-run instead of starting it
//	                            over.
//
// A completed entry supersedes any partial entries for the same key.
// A partially written trailing entry (the kill arrived mid-append) is
// repaired away, not treated as corruption: everything before it is
// intact by construction. The repair itself is crash-safe — the valid
// prefix is rewritten through a temp file, fsync'd, renamed over the
// manifest, and the directory fsync'd so the rename's dirent survives
// a crash too (the window DESIGN.md §11 used to gloss over).
//
// Results round-trip the manifest losslessly (sim.Results and
// stats.CDF define exact JSON codecs), so a resumed matrix is
// bit-identical to an uninterrupted one.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"stms/internal/ckpt"
	"stms/internal/sim"
)

// manifestFormatVersion stamps the header line. Version 2 keys cells by
// their run identity (sim.RunSpec.Key); version 1 keys cannot be
// translated, so version 1 manifests are refused.
const manifestFormatVersion = 2

type manifestHeader struct {
	Version int `json:"stms_manifest"`
}

type manifestEntry struct {
	Key  string       `json:"key"`
	Res  *sim.Results `json:"results,omitempty"`
	Ckpt string       `json:"ckpt,omitempty"` // checkpoint address (sim.RunSpec.Key) of a partial cell
}

// manifest is an open, append-only manifest file.
type manifest struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	enc    *json.Encoder
	loaded int // completed entries preloaded into the memo at open
}

// openManifest opens (creating if absent) the manifest at path and
// loads its entries: completed cells into memo, partial cells (cells a
// prior coordinator exchanged a checkpoint for) into partials. A
// truncated final entry — the tail of a run killed mid-append — is
// repaired away by atomically rewriting the file to its last complete
// entry.
func openManifest(path string, memo map[string]*sim.Results, partials map[string]string) (*manifest, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lab: opening manifest: %w", err)
	}
	m := &manifest{path: path, f: f, enc: json.NewEncoder(f)}

	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("lab: manifest: %w", err)
	}
	if info.Size() == 0 {
		if err := m.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
		return m, nil
	}

	dec := json.NewDecoder(f)
	var hdr manifestHeader
	if err := dec.Decode(&hdr); err != nil {
		// Not even a complete header: the process died during the very
		// first write. Start the file over.
		if err := m.repair(0); err != nil {
			m.f.Close()
			return nil, err
		}
		if err := m.writeHeader(); err != nil {
			m.f.Close()
			return nil, err
		}
		return m, nil
	}
	if hdr.Version != manifestFormatVersion {
		f.Close()
		return nil, fmt.Errorf("lab: manifest %s: format version %d, want %d; delete it or pass a new -manifest path",
			path, hdr.Version, manifestFormatVersion)
	}

	good := dec.InputOffset()
	for {
		var e manifestEntry
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				break
			}
			// A torn trailing entry; drop it and keep the prefix.
			if err := m.repair(good); err != nil {
				m.f.Close()
				return nil, err
			}
			break
		}
		switch {
		case e.Key == "" || (e.Res == nil && e.Ckpt == ""):
			// Structurally complete JSON but not a valid entry — the
			// torn tail of a larger entry that happened to parse.
			if err := m.repair(good); err != nil {
				m.f.Close()
				return nil, err
			}
		case e.Res != nil:
			memo[e.Key] = e.Res
			if partials != nil {
				delete(partials, e.Key) // completed supersedes partial
			}
			m.loaded++
			good = dec.InputOffset()
			continue
		default:
			if partials != nil {
				partials[e.Key] = e.Ckpt
			}
			good = dec.InputOffset()
			continue
		}
		break
	}
	// The decoder read ahead of the file offset; park the descriptor at
	// the end of the valid prefix for appending.
	if _, err := m.f.Seek(good, io.SeekStart); err != nil {
		m.f.Close()
		return nil, fmt.Errorf("lab: manifest: %w", err)
	}
	return m, nil
}

func (m *manifest) writeHeader() error {
	if err := m.enc.Encode(manifestHeader{Version: manifestFormatVersion}); err != nil {
		return fmt.Errorf("lab: manifest header: %w", err)
	}
	return m.sync()
}

// repair rewrites the manifest to its first off bytes, atomically: the
// valid prefix goes into a temp file in the same directory, is
// fsync'd, renamed over the manifest, and the directory is fsync'd so
// the rename's dirent is durable — a crash mid-repair leaves either
// the old file (possibly plus a stale temp, ignored by later opens) or
// the repaired one, never a torn in-place truncation. The open handle
// is switched to the repaired file, positioned at its end.
func (m *manifest) repair(off int64) error {
	prefix := make([]byte, off)
	if _, err := m.f.ReadAt(prefix, 0); err != nil && off > 0 {
		return fmt.Errorf("lab: manifest repair: %w", err)
	}
	dir := filepath.Dir(m.path)
	tmp, err := os.CreateTemp(dir, ".manifest-repair-*")
	if err != nil {
		return fmt.Errorf("lab: manifest repair: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(prefix); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("lab: manifest repair: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("lab: manifest repair: %w", err)
	}
	if err := os.Rename(tmpName, m.path); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("lab: manifest repair: %w", err)
	}
	ckpt.SyncDir(dir)
	m.f.Close()
	m.f = tmp
	m.enc = json.NewEncoder(m.f)
	if _, err := m.f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("lab: manifest repair: %w", err)
	}
	return nil
}

func (m *manifest) sync() error {
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("lab: manifest: %w", err)
	}
	return nil
}

// append records one completed cell. Failures are deliberately
// swallowed: the manifest is a resume accelerator, and a full disk must
// not fail the run it is protecting.
func (m *manifest) append(key string, r *sim.Results) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.enc.Encode(manifestEntry{Key: key, Res: r}) == nil {
		m.f.Sync()
	}
}

// appendPartial records that a checkpoint for the cell exists at the
// given address, so a restarted coordinator resumes the cell mid-run
// instead of starting it over. Best-effort, like append.
func (m *manifest) appendPartial(key, ckptKey string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.enc.Encode(manifestEntry{Key: key, Ckpt: ckptKey}) == nil {
		m.f.Sync()
	}
}
