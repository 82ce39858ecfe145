package vcs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// benchSource is the staged text of the repository benchmark's run i: it
// changes every 50th run, so 49 commits in 50 introduce no blob.
func benchSource(i int) map[string]string {
	return map[string]string{"train.flow": fmt.Sprintf("# train.flow revision %d\nfor epoch in flor.loop(\"epoch\", range(E)):\n    flor.log(\"loss\", loss)\n", i/50)}
}

func commitRuns(t testing.TB, r *Repo, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := r.CommitFiles(benchSource(i), "", time.Unix(int64(1_700_000_000+i), 123456789)); err != nil {
			t.Fatal(err)
		}
	}
}

// writeLegacy writes r the way Save did before the journal: one JSON object
// holding every object, HEAD and the commit list. It is the reference for
// the format Load must keep accepting.
func writeLegacy(t testing.TB, r *Repo, path string) {
	t.Helper()
	data, err := json.Marshal(struct {
		Objects map[string][]byte `json:"objects"`
		Head    string            `json:"head"`
		Commits []string          `json:"commits"`
	}{r.objects, r.head, r.commits})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t testing.TB, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// history is everything a reader can ask of a repository: ids in order and
// the workspace at each.
func history(t testing.TB, r *Repo) (ids []string, files []map[string]string) {
	t.Helper()
	log, err := r.Log()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range log {
		f, err := r.FilesAt(c.ID)
		if err != nil {
			t.Fatalf("FilesAt(%s): %v", short(c.ID), err)
		}
		ids, files = append(ids, c.ID), append(files, f)
	}
	return ids, files
}

func assertSameHistory(t testing.TB, label string, got, want *Repo) {
	t.Helper()
	gi, gf := history(t, got)
	wi, wf := history(t, want)
	if !reflect.DeepEqual(gi, wi) || !reflect.DeepEqual(gf, wf) || got.Head() != want.Head() {
		t.Fatalf("%s: history differs: %d commits head %s, want %d commits head %s",
			label, len(gi), short(got.Head()), len(wi), short(want.Head()))
	}
}

func mustLoad(t testing.TB, path string) *Repo {
	t.Helper()
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSaveAppendsWhatOneCommitStaged: the bytes one more commit adds do not
// depend on how much history precedes it, and nothing already written moves.
func TestSaveAppendsWhatOneCommitStaged(t *testing.T) {
	appended := func(depth int) int64 {
		path := filepath.Join(t.TempDir(), "repo.json")
		r := mustLoad(t, path)
		commitRuns(t, r, 0, depth)
		if err := r.Save(path); err != nil {
			t.Fatal(err)
		}
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		commitRuns(t, r, depth, depth+1)
		if err := r.Save(path); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(after, before) {
			t.Fatalf("depth %d: Save rewrote bytes it had already written", depth)
		}
		assertSameHistory(t, fmt.Sprintf("reload at depth %d", depth), mustLoad(t, path), r)
		return int64(len(after) - len(before))
	}
	// Depths one short of a new source revision: neither commit carries a blob.
	shallow, deep := appended(101), appended(5001)
	if d := deep - shallow; d < -64 || d > 64 {
		t.Fatalf("one commit appended %d B at depth 101 and %d B at depth 5001", shallow, deep)
	}
}

// TestJournalNoLargerThanLegacy: the per-commit record must not cost more
// disk than the whole-state file it replaces (disk_bytes_per_row is bounded).
func TestJournalNoLargerThanLegacy(t *testing.T) {
	dir := t.TempDir()
	r := NewRepo()
	commitRuns(t, r, 0, 1000)
	legacy, journal := filepath.Join(dir, "legacy.json"), filepath.Join(dir, "repo.json")
	writeLegacy(t, r, legacy)
	if err := r.Save(journal); err != nil {
		t.Fatal(err)
	}
	l, j := fileSize(t, legacy), fileSize(t, journal)
	t.Logf("1000 commits: legacy %d B (%d B/commit), journal %d B (%d B/commit)", l, l/1000, j, j/1000)
	if j > l {
		t.Fatalf("journal is %d B, legacy repo.json of the same history %d B", j, l)
	}
}

// TestLegacyFileLoadsAndGrows: a project last written by the whole-state
// Save opens, takes commits as appended records after the untouched legacy
// bytes, and reloads to the full history.
func TestLegacyFileLoadsAndGrows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.json")
	want := NewRepo()
	commitRuns(t, want, 0, 120)
	writeLegacy(t, want, path)
	legacy, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	r := mustLoad(t, path)
	assertSameHistory(t, "legacy load", r, want)
	for round := 0; round < 2; round++ { // the first append terminates the legacy record
		commitRuns(t, r, r.NumCommits(), r.NumCommits()+60)
		commitRuns(t, want, want.NumCommits(), want.NumCommits()+60)
		if err := r.Save(path); err != nil {
			t.Fatal(err)
		}
		now, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(now, legacy) {
			t.Fatal("Save rewrote the legacy record")
		}
		r = mustLoad(t, path)
		assertSameHistory(t, fmt.Sprintf("reload %d", round), r, want)
	}
}

// TestSaveToAnotherPath: a path the repository was not loaded from gets the
// whole history once, then appends like any other.
func TestSaveToAnotherPath(t *testing.T) {
	dir := t.TempDir()
	path, out := filepath.Join(dir, "repo.json"), filepath.Join(dir, "probe-repo.json")
	seed := NewRepo()
	commitRuns(t, seed, 0, 300)
	if err := seed.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, []byte("another history"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustLoad(t, path)
	commitRuns(t, r, 300, 301)
	if err := r.Save(out); err != nil {
		t.Fatal(err)
	}
	whole, loaded := fileSize(t, out), fileSize(t, path)
	if whole <= loaded {
		t.Fatalf("first Save to a new path wrote %d B, less than the %d B of the history before it", whole, loaded)
	}
	commitRuns(t, r, 301, 302)
	if err := r.Save(out); err != nil {
		t.Fatal(err)
	}
	if grew := fileSize(t, out) - whole; grew <= 0 || grew > whole/100 {
		t.Fatalf("second Save to the same path grew it by %d B of %d", grew, whole)
	}
	assertSameHistory(t, "reload of the other path", mustLoad(t, out), r)
	if now := fileSize(t, path); now != loaded {
		t.Fatalf("Save to another path took the loaded one from %d to %d B", loaded, now)
	}
}

// TestTornTailIsDroppedThenTruncated: every cut inside the last record loads
// the history before it, and the next Save removes the torn bytes.
func TestTornTailIsDroppedThenTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "repo.json")
	r := mustLoad(t, path)
	commitRuns(t, r, 0, 50)
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	keep := fileSize(t, path)
	want := mustLoad(t, path)
	commitRuns(t, r, 50, 51) // revision 1: this record carries a blob
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := keep; cut < int64(len(full)); cut += 7 {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.json", cut))
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := mustLoad(t, torn)
		assertSameHistory(t, fmt.Sprintf("cut at %d", cut), got, want)
		commitRuns(t, got, 50, 52)
		if err := got.Save(torn); err != nil {
			t.Fatal(err)
		}
		again := mustLoad(t, torn)
		assertSameHistory(t, fmt.Sprintf("reload after append over cut at %d", cut), again, got)
	}
}

// TestDamageIsRefused: a record that does not verify fails Load with
// ErrCorrupt, wherever it is — a shorter history is never the answer.
func TestDamageIsRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "repo.json")
	r := NewRepo()
	commitRuns(t, r, 0, 60)
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(full, []byte{'\n'})
	lines = lines[:len(lines)-1] // SplitAfter leaves an empty tail
	join := func(l [][]byte) []byte { return bytes.Join(l, nil) }
	flip := func(data []byte, at int) []byte {
		out := append([]byte(nil), data...)
		out[at] ^= 0x01
		return out
	}
	mid := len(join(lines[:30]))
	cases := map[string][]byte{
		"flipped byte in a middle payload": flip(full, mid+len(lines[30])/2),
		"flipped byte in the first blob":   flip(full, len(lines[0])-8),
		"missing middle record":            join(append(append([][]byte{}, lines[:30]...), lines[31:]...)),
		"swapped records":                  join(append(append([][]byte{}, lines[:10]...), lines[11], lines[10])),
		"blank line":                       append(append([]byte(nil), full...), '\n'),
		"not a record":                     append(append([]byte(nil), full...), "{}\n"...),
	}
	for name, data := range cases {
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := Load(bad); !errors.Is(err, ErrCorrupt) {
			n := -1
			if got != nil {
				n = got.NumCommits()
			}
			t.Errorf("%s: Load = %d commits, err %v; want ErrCorrupt", name, n, err)
		}
	}

	legacy := filepath.Join(dir, "legacy.json")
	writeLegacy(t, r, legacy)
	data, err := os.ReadFile(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(legacy); !errors.Is(err, ErrCorrupt) {
		t.Errorf("half a legacy file: err %v; want ErrCorrupt", err)
	}
}

// FuzzRepoLoad: arbitrary bytes never panic Load, and whatever loads keeps
// the prefix property the torn-tail rule rests on — cutting the file at any
// record boundary loads exactly the commits before the cut.
func FuzzRepoLoad(f *testing.F) {
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.json")
	r := NewRepo()
	commitRuns(f, r, 48, 53)
	if err := r.Save(seedPath); err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	writeLegacy(f, r, seedPath)
	legacy, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	r = mustLoad(f, seedPath)
	commitRuns(f, r, 53, 55)
	if err := r.Save(seedPath); err != nil {
		f.Fatal(err)
	}
	mixed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-9]) // torn tail
	f.Add(legacy)
	f.Add(mixed)
	f.Add([]byte("{\"commit\":{}}\n"))
	f.Add([]byte(`{"objects":{},"head":"","commits":[]}`))

	path := filepath.Join(dir, "fuzz.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		whole, err := Load(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load of bytes that were read failed with something other than ErrCorrupt: %v", err)
			}
			return
		}
		ids, _ := history(t, whole)
		verified := data[:whole.journal.size]
		records := bytes.Count(verified, []byte{'\n'})
		for cut, seen := 0, 0; cut < len(verified); cut++ {
			if verified[cut] != '\n' {
				continue
			}
			seen++
			if err := os.WriteFile(path, verified[:cut+1], 0o644); err != nil {
				t.Fatal(err)
			}
			part, err := Load(path)
			if err != nil {
				t.Fatalf("prefix of %d records of a journal that loads: %v", seen, err)
			}
			got, _ := history(t, part)
			// Records after a legacy first record hold one commit each; the
			// legacy record holds however many it lists.
			if want := len(ids) - (records - seen); len(got) != want || !reflect.DeepEqual(got, ids[:len(got)]) {
				t.Fatalf("prefix of %d of %d records loaded %d commits, want the first %d of %d", seen, records, len(got), want, len(ids))
			}
		}
	})
}
