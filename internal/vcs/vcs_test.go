package vcs

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEmptyRepo(t *testing.T) {
	r := NewRepo()
	if r.Head() != "" || r.NumCommits() != 0 {
		t.Fatal("empty repo state wrong")
	}
	if _, err := r.GetCommit("nope"); err == nil {
		t.Fatal("missing commit must error")
	}
}

func TestCommitAndRetrieve(t *testing.T) {
	r := NewRepo()
	v1, err := r.CommitFiles(map[string]string{"train.flow": "v1 content", "infer.flow": "infer"}, "first", time.Unix(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Head() != v1 {
		t.Fatal("HEAD not advanced")
	}
	got, err := r.FileAt(v1, "train.flow")
	if err != nil || got != "v1 content" {
		t.Fatalf("FileAt: %q %v", got, err)
	}
	if _, err := r.FileAt(v1, "missing.flow"); err == nil {
		t.Fatal("missing file must error")
	}
	files, err := r.FilesAt(v1)
	if err != nil || len(files) != 2 {
		t.Fatalf("FilesAt: %v %v", files, err)
	}
}

func TestCommitChainAndLog(t *testing.T) {
	r := NewRepo()
	v1, _ := r.CommitFiles(map[string]string{"a": "1"}, "c1", time.Unix(1, 0))
	v2, _ := r.CommitFiles(map[string]string{"a": "2"}, "c2", time.Unix(2, 0))
	v3, _ := r.CommitFiles(map[string]string{"a": "2", "b": "x"}, "c3", time.Unix(3, 0))
	log, err := r.Log()
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 {
		t.Fatalf("log = %d", len(log))
	}
	if log[0].ID != v1 || log[1].ID != v2 || log[2].ID != v3 {
		t.Fatal("log order wrong")
	}
	if log[1].Parent != v1 || log[2].Parent != v2 {
		t.Fatal("parent links wrong")
	}
	if log[0].Seq != 0 || log[2].Seq != 2 {
		t.Fatal("seq wrong")
	}
}

func TestIdenticalTreesGetDistinctIDs(t *testing.T) {
	r := NewRepo()
	v1, _ := r.CommitFiles(map[string]string{"a": "same"}, "m", time.Unix(1, 0))
	v2, _ := r.CommitFiles(map[string]string{"a": "same"}, "m", time.Unix(1, 0))
	if v1 == v2 {
		t.Fatal("identical trees must still produce distinct version ids")
	}
}

func TestAllVersionsOfKeepsUnchanged(t *testing.T) {
	r := NewRepo()
	v1, _ := r.CommitFiles(map[string]string{"f": "A"}, "", time.Unix(1, 0))
	v2, _ := r.CommitFiles(map[string]string{"f": "A", "g": "x"}, "", time.Unix(2, 0)) // f unchanged
	v3, _ := r.CommitFiles(map[string]string{"f": "B"}, "", time.Unix(3, 0))
	r.CommitFiles(map[string]string{"g": "y"}, "", time.Unix(4, 0)) // f gone
	all, err := r.AllVersionsOf("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0] != v1 || all[1] != v2 || all[2] != v3 {
		t.Fatalf("all versions: %v", all)
	}
}

func TestBlobDeduplication(t *testing.T) {
	r := NewRepo()
	big := make([]byte, 1024)
	for i := range big {
		big[i] = byte(i)
	}
	r.CommitFiles(map[string]string{"f": string(big)}, "", time.Unix(1, 0))
	before := len(r.objects)
	r.CommitFiles(map[string]string{"f": string(big), "g": "tiny"}, "", time.Unix(2, 0))
	after := len(r.objects)
	// Second commit adds only: one new blob (g) + one commit object.
	if after-before != 2 {
		t.Fatalf("expected blob dedup; objects grew by %d", after-before)
	}
}

func TestGitRowsVirtualTableShape(t *testing.T) {
	r := NewRepo()
	v1, _ := r.CommitFiles(map[string]string{"a": "1", "b": "2"}, "", time.Unix(1, 0))
	v2, _ := r.CommitFiles(map[string]string{"a": "1b"}, "", time.Unix(2, 0))
	rows, err := r.GitRows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("git rows = %d", len(rows))
	}
	// Rows are (vid, filename, parent_vid, contents) ordered by commit, then name.
	if rows[0][0] != v1 || rows[0][1] != "a" || rows[0][2] != "" || rows[0][3] != "1" {
		t.Fatalf("row0: %v", rows[0])
	}
	if rows[2][0] != v2 || rows[2][2] != v1 || rows[2][3] != "1b" {
		t.Fatalf("row2: %v", rows[2])
	}
}

func TestCommitEmptyFilenameRejected(t *testing.T) {
	r := NewRepo()
	if _, err := r.CommitFiles(map[string]string{"": "x"}, "", time.Unix(1, 0)); err == nil {
		t.Fatal("empty filename must be rejected")
	}
}

func TestContentRoundTripProperty(t *testing.T) {
	// Property: any committed content is retrieved byte-identical.
	r := NewRepo()
	f := func(content string) bool {
		vid, err := r.CommitFiles(map[string]string{"f": content}, "", time.Unix(1, 0))
		if err != nil {
			return false
		}
		got, err := r.FileAt(vid, "f")
		return err == nil && got == content
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShort(t *testing.T) {
	if Short("abcdefghijk") != "abcdefgh" {
		t.Fatal("short id")
	}
	if Short("ab") != "ab" {
		t.Fatal("short id under 8")
	}
}
