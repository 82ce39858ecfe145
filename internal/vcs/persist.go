package vcs

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"flordb/internal/storage"
)

// repo.json is an append-only journal: one newline-terminated JSON record per
// commit, in commit order,
//
//	{"commit":<payload>,"blobs":["<base64>",...]}
//
// where <payload> is the commit object's exact bytes and blobs are the file
// contents no earlier record carried. Ids, HEAD and order are not stored:
// Load recomputes them from content and file order and checks every record
// against the chain (its parent is HEAD, its seq is its position, every tree
// entry resolves), so a record that loads is a record that verified. A file
// in the previous format — one object holding the whole state — is accepted
// as the first record and never rewritten.
//
// The newline is the commit marker. Bytes after the last newline are a torn
// append: Load drops them and the next Save truncates them. Anything else
// that does not verify is ErrCorrupt, never a shorter history (DESIGN §7).

// ErrCorrupt is wrapped by every Load error that is damage to the file rather
// than a failure to read it.
var ErrCorrupt = errors.New("vcs: repo.json does not verify")

// journal is what Save last left on disk, or Load found there.
type journal struct {
	path    string // the file the other fields describe
	commits int    // commits it holds
	size    int64  // its verified length; a longer file ends in a torn append
	openEnd bool   // a legacy record ends it without a newline; the next append supplies one
}

// SetNoSync makes Save skip its fsyncs — the session's Options.NoSync policy,
// under which no write of the project survives a crash by contract.
func (r *Repo) SetNoSync(noSync bool) {
	r.saveMu.Lock()
	defer r.saveMu.Unlock()
	r.noSync = noSync
}

// Save makes every commit durable at path. On the path the repository was
// loaded from or last saved to it appends one record per commit not yet
// there, in one write and one fsync, and never touches what is already
// written; any other path gets the whole history once, installed by rename.
// Concurrent callers serialize, and one that finds its commits already
// written by another returns at once: a nil return means every commit made
// before the call is on disk.
func (r *Repo) Save(path string) error {
	r.saveMu.Lock()
	defer r.saveMu.Unlock()
	if err := r.saveLocked(path); err != nil {
		return fmt.Errorf("vcs: save: %w", err)
	}
	return nil
}

func (r *Repo) saveLocked(path string) error {
	j := r.journal
	whole := path != j.path
	if whole {
		j = journal{path: path}
	}
	buf, upto := r.encodeFrom(j.commits, j.openEnd)
	if upto == j.commits && !whole {
		return nil
	}

	fsys := storage.OSFS{}
	if whole {
		// A path this repository has not written may hold another history:
		// replace it atomically rather than append to it.
		if err := storage.WriteFileAtomic(fsys, path, buf, !r.noSync); err != nil {
			return err
		}
		r.journal = journal{path: path, commits: upto, size: int64(len(buf))}
		return nil
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	var st fs.FileInfo
	if st, err = os.Stat(path); err == nil && st.Size() < j.size {
		err = fmt.Errorf("%s shrank to %d bytes below the %d already saved", path, st.Size(), j.size)
	} else if err == nil && st.Size() > j.size {
		err = f.Truncate(j.size) // a torn append, ours or a crashed session's
	}
	if err == nil {
		_, err = f.WriteAt(buf, j.size)
	}
	if err == nil && !r.noSync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && j.size == 0 && !r.noSync {
		err = fsys.SyncDir(filepath.Dir(path)) // the append created the file
	}
	if err != nil {
		return err
	}
	r.journal = journal{path: path, commits: upto, size: j.size + int64(len(buf))}
	return nil
}

// encodeFrom renders the records of commits from.. and returns them with the
// commit count they bring the journal to.
func (r *Repo) encodeFrom(from int, openEnd bool) (buf []byte, upto int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if openEnd && from < len(r.commits) {
		buf = append(buf, '\n')
	}
	for i := from; i < len(r.commits); i++ {
		buf = append(buf, `{"commit":`...)
		buf = append(buf, r.objects[r.commits[i]]...)
		for k, h := range r.intro[i] {
			if k == 0 {
				buf = append(buf, `,"blobs":[`...)
			} else {
				buf = append(buf, ',')
			}
			buf = append(buf, '"')
			buf = base64.StdEncoding.AppendEncode(buf, r.objects[h])
			buf = append(buf, '"')
		}
		if len(r.intro[i]) > 0 {
			buf = append(buf, ']')
		}
		buf = append(buf, "}\n"...)
	}
	return buf, len(r.commits)
}

// Load reads the repository journalled at path. A missing file yields an
// empty repository; either way the result appends to path on Save.
func Load(path string) (*Repo, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("vcs: load: %w", err)
	}
	r := NewRepo()
	rest, openEnd := data, false
	if bytes.HasPrefix(rest, []byte(`{"objects":`)) {
		line, tail, terminated := bytes.Cut(rest, []byte{'\n'})
		if err := r.admitLegacy(line); err != nil {
			return nil, fmt.Errorf("%w: %s: legacy record: %v", ErrCorrupt, path, err)
		}
		rest, openEnd = tail, !terminated
	}
	for {
		line, tail, terminated := bytes.Cut(rest, []byte{'\n'})
		if !terminated {
			break // nothing, or a torn append
		}
		var rec struct {
			Commit json.RawMessage `json:"commit"`
			Blobs  [][]byte        `json:"blobs"`
		}
		err := json.Unmarshal(line, &rec)
		if err == nil {
			err = r.admit(rec.Commit, rec.Blobs)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %s: record %d: %v", ErrCorrupt, path, len(r.commits), err)
		}
		rest = tail
	}
	r.journal = journal{path: path, commits: len(r.commits), size: int64(len(data) - len(rest)), openEnd: openEnd}
	return r, nil
}

// admit verifies payload as the next commit on HEAD — blobs being the
// contents its record carries — and makes it HEAD.
func (r *Repo) admit(payload []byte, blobs [][]byte) error {
	var c Commit
	if err := json.Unmarshal(payload, &c); err != nil {
		return fmt.Errorf("decode commit: %w", err)
	}
	if c.Parent != r.head || c.Seq != len(r.commits) {
		return fmt.Errorf("commit names parent %q at seq %d, but HEAD is %q after %d commits", c.Parent, c.Seq, r.head, len(r.commits))
	}
	var introduced []string
	for _, b := range blobs {
		h := hashOf(b)
		if _, ok := r.objects[h]; !ok {
			r.objects[h] = b
			introduced = append(introduced, h)
		}
	}
	for name, h := range c.Tree {
		if _, ok := r.objects[h]; !ok {
			return fmt.Errorf("commit #%d: no contents %s for %s", c.Seq, short(h), name)
		}
	}
	r.push(payload, introduced)
	return nil
}

// admitLegacy replays a whole-state file as the records it would have been:
// each listed commit with the tree contents no earlier one had.
func (r *Repo) admitLegacy(line []byte) error {
	var state struct {
		Objects map[string][]byte `json:"objects"`
		Head    string            `json:"head"`
		Commits []string          `json:"commits"`
	}
	if err := json.Unmarshal(line, &state); err != nil {
		return err
	}
	for _, id := range state.Commits {
		payload := state.Objects[id]
		var c Commit
		if err := json.Unmarshal(payload, &c); err != nil {
			return fmt.Errorf("decode commit %s: %w", short(id), err)
		}
		names := make([]string, 0, len(c.Tree))
		for name := range c.Tree {
			names = append(names, name)
		}
		sort.Strings(names)
		var blobs [][]byte
		for _, name := range names {
			if _, ok := r.objects[c.Tree[name]]; !ok {
				blobs = append(blobs, state.Objects[c.Tree[name]])
			}
		}
		if err := r.admit(payload, blobs); err != nil {
			return err
		}
		if r.head != id {
			return fmt.Errorf("commit #%d hashes to %s, listed as %s", c.Seq, short(r.head), short(id))
		}
	}
	if r.head != state.Head {
		return fmt.Errorf("head %s is not the last commit %s", short(state.Head), short(r.head))
	}
	return nil
}
