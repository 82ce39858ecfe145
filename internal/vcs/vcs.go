// Package vcs implements the version-control substrate FlorDB's change
// context rests on: a content-addressed object store with blob, tree, and
// commit objects, a linear ref (HEAD), history walking, per-version file
// retrieval, and diffs between versions.
//
// The paper uses git; FlorDB only needs the subset reproduced here —
// commit-on-flor.commit, version enumeration for ts2vid, the `git` virtual
// table (vid, filename, parent_vid, contents), and content diffs that drive
// cross-version log-statement propagation (§2).
package vcs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Repo is an in-memory content-addressed repository with one branch.
// It is safe for concurrent use.
type Repo struct {
	mu      sync.RWMutex
	objects map[string][]byte // hash -> payload (blobs and encoded commits)
	head    string            // commit id of HEAD, "" when empty
	commits []string          // commit ids in commit order (oldest first)
	intro   [][]string        // per commit: hashes of the blobs it introduced

	saveMu  sync.Mutex // serializes Save; guards journal
	journal journal    // what Save last left on disk, and where (persist.go)
	noSync  bool       // Save skips fsync (SetNoSync)
}

// Commit is the decoded commit object.
type Commit struct {
	ID      string            `json:"-"`
	Parent  string            `json:"parent"`
	Tree    map[string]string `json:"tree"` // filename -> blob hash
	Message string            `json:"message"`
	Wall    time.Time         `json:"wall"`
	Seq     int               `json:"seq"` // position in first-parent history, 0-based
}

// NewRepo creates an empty repository.
func NewRepo() *Repo {
	return &Repo{objects: make(map[string][]byte)}
}

func hashOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// commitID salts the commit hash with its sequence number so identical
// trees committed twice get distinct ids.
func commitID(payload []byte, seq int) string {
	h := sha256.New()
	h.Write(payload)
	fmt.Fprintf(h, "#%d", seq)
	return hex.EncodeToString(h.Sum(nil))
}

// push makes payload, already verified or just built against HEAD, the new
// HEAD; introduced names the blobs no earlier commit had stored.
func (r *Repo) push(payload []byte, introduced []string) string {
	id := commitID(payload, len(r.commits))
	r.objects[id] = payload
	r.head = id
	r.commits = append(r.commits, id)
	r.intro = append(r.intro, introduced)
	return id
}

// CommitFiles snapshots the given workspace (filename -> contents) as a new
// commit on HEAD and returns its version id. An empty message is allowed.
// Committing an identical tree to HEAD still creates a commit (each
// flor.commit produces a distinct version), but blob storage is shared.
func (r *Repo) CommitFiles(files map[string]string, message string, wall time.Time) (string, error) {
	names := make([]string, 0, len(files))
	for name := range files {
		if name == "" {
			return "", fmt.Errorf("vcs: empty filename")
		}
		names = append(names, name)
	}
	sort.Strings(names) // the journal record lists introduced blobs in this order
	r.mu.Lock()
	defer r.mu.Unlock()
	tree := make(map[string]string, len(files))
	var introduced []string
	for _, name := range names {
		blob := []byte(files[name])
		h := hashOf(blob)
		if _, ok := r.objects[h]; !ok {
			r.objects[h] = blob
			introduced = append(introduced, h)
		}
		tree[name] = h
	}
	c := Commit{Parent: r.head, Tree: tree, Message: message, Wall: wall.UTC(), Seq: len(r.commits)}
	payload, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("vcs: encode commit: %w", err)
	}
	return r.push(payload, introduced), nil
}

// Head returns the current HEAD commit id, or "" when the repo is empty.
func (r *Repo) Head() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.head
}

// NumCommits returns the number of commits.
func (r *Repo) NumCommits() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.commits)
}

// GetCommit decodes the commit with the given id.
func (r *Repo) GetCommit(id string) (*Commit, error) {
	r.mu.RLock()
	payload, ok := r.objects[id]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("vcs: no commit %s", short(id))
	}
	var c Commit
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, fmt.Errorf("vcs: decode commit %s: %w", short(id), err)
	}
	c.ID = id
	return &c, nil
}

// Log returns the commit history, oldest first.
func (r *Repo) Log() ([]*Commit, error) {
	r.mu.RLock()
	ids := append([]string(nil), r.commits...)
	r.mu.RUnlock()
	out := make([]*Commit, len(ids))
	for i, id := range ids {
		c, err := r.GetCommit(id)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// FileAt returns the contents of a file at the given version.
func (r *Repo) FileAt(vid, filename string) (string, error) {
	c, err := r.GetCommit(vid)
	if err != nil {
		return "", err
	}
	blobID, ok := c.Tree[filename]
	if !ok {
		return "", fmt.Errorf("vcs: %s not present in %s", filename, short(vid))
	}
	r.mu.RLock()
	payload, ok := r.objects[blobID]
	r.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("vcs: dangling blob %s", short(blobID))
	}
	return string(payload), nil
}

// FilesAt returns the full workspace at the given version.
func (r *Repo) FilesAt(vid string) (map[string]string, error) {
	c, err := r.GetCommit(vid)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(c.Tree))
	for name, blobID := range c.Tree {
		r.mu.RLock()
		payload, ok := r.objects[blobID]
		r.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("vcs: dangling blob %s for %s", short(blobID), name)
		}
		out[name] = string(payload)
	}
	return out, nil
}

// ChangeKind classifies a file change between two versions.
type ChangeKind int

// Change kinds.
const (
	Added ChangeKind = iota
	Removed
	Modified
)

// String renders the change kind.
func (k ChangeKind) String() string {
	switch k {
	case Added:
		return "added"
	case Removed:
		return "removed"
	case Modified:
		return "modified"
	default:
		return "?"
	}
}

// Change is one file-level difference between two commits.
type Change struct {
	Filename string
	Kind     ChangeKind
}

// DiffCommits lists file-level changes from commit a to commit b, sorted by
// filename. Passing "" for a means "the empty tree".
func (r *Repo) DiffCommits(a, b string) ([]Change, error) {
	var at map[string]string
	if a == "" {
		at = map[string]string{}
	} else {
		ca, err := r.GetCommit(a)
		if err != nil {
			return nil, err
		}
		at = ca.Tree
	}
	cb, err := r.GetCommit(b)
	if err != nil {
		return nil, err
	}
	var out []Change
	for name, hb := range cb.Tree {
		ha, ok := at[name]
		switch {
		case !ok:
			out = append(out, Change{Filename: name, Kind: Added})
		case ha != hb:
			out = append(out, Change{Filename: name, Kind: Modified})
		}
	}
	for name := range at {
		if _, ok := cb.Tree[name]; !ok {
			out = append(out, Change{Filename: name, Kind: Removed})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Filename < out[j].Filename })
	return out, nil
}

// VersionsOf returns the ids of all commits containing the file, oldest
// first, skipping commits where the file's content is identical to the
// previous returned version (i.e. it lists distinct content versions).
func (r *Repo) VersionsOf(filename string) ([]string, error) {
	log, err := r.Log()
	if err != nil {
		return nil, err
	}
	var out []string
	prevBlob := ""
	for _, c := range log {
		blob, ok := c.Tree[filename]
		if !ok {
			continue
		}
		if blob == prevBlob {
			continue
		}
		out = append(out, c.ID)
		prevBlob = blob
	}
	return out, nil
}

// AllVersionsOf returns every commit id containing the file, oldest first,
// including commits where the content did not change.
func (r *Repo) AllVersionsOf(filename string) ([]string, error) {
	log, err := r.Log()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, c := range log {
		if _, ok := c.Tree[filename]; ok {
			out = append(out, c.ID)
		}
	}
	return out, nil
}

func short(id string) string {
	if len(id) > 8 {
		return id[:8]
	}
	return id
}

// Short abbreviates a version id for display.
func Short(id string) string { return short(id) }

// GitRows produces the rows of the virtual `git` table of Figure 1:
// (vid, filename, parent_vid, contents) for every file at every version.
func (r *Repo) GitRows() ([][4]string, error) {
	log, err := r.Log()
	if err != nil {
		return nil, err
	}
	var out [][4]string
	for _, c := range log {
		names := make([]string, 0, len(c.Tree))
		for name := range c.Tree {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			contents, err := r.FileAt(c.ID, name)
			if err != nil {
				return nil, err
			}
			out = append(out, [4]string{c.ID, name, c.Parent, contents})
		}
	}
	return out, nil
}

// Describe renders a one-line summary of a commit for CLI display.
func Describe(c *Commit) string {
	msg := c.Message
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return fmt.Sprintf("%s  #%d  %s  %s", short(c.ID), c.Seq, c.Wall.Format(time.RFC3339), msg)
}
