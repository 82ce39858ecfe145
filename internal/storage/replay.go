package storage

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"flordb/internal/record"
)

// replayState threads commit-visibility semantics through a multi-file
// replay. In strict mode, records are held back until the commit that makes
// them visible arrives; memory is bounded by the size of one uncommitted
// transaction, never by the log.
type replayState struct {
	strict bool
	fn     func(rec any) error
	buf    []any // records since the last commit (strict mode only)
}

func (st *replayState) emit(rec any) error {
	if !st.strict {
		return st.fn(rec)
	}
	st.buf = append(st.buf, rec)
	if _, isCommit := rec.(*record.CommitRecord); !isCommit {
		return nil
	}
	for _, r := range st.buf {
		if err := st.fn(r); err != nil {
			return err
		}
	}
	st.buf = st.buf[:0]
	return nil
}

// replayFile streams every decodable record of one WAL file to st, reading
// through a bounded bufio.Reader so replaying a multi-GB log never buffers
// the whole file. tornOK marks the final file of a stream, whose last line
// may be torn by a crash mid-write; a torn line followed by anything but
// whitespace — and any undecodable line in a non-final file — is corruption.
// It returns the byte offset just past the last commit record in the file
// (0 if the file holds none), which recovery uses to truncate the
// uncommitted tail of the active file.
//
// A missing sealed segment is the one segment-contiguity check: walks name
// every sequence of their range, so a hole in history — a segment deleted by
// a compaction under a snapshot that no longer loads, or never installed —
// surfaces here instead of being replayed around.
func replayFile(path string, tornOK bool, st *replayState) (committedLen int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		if tornOK {
			return 0, nil
		}
		return 0, fmt.Errorf("storage: wal segment gap: %s is missing; refusing to rebuild state around lost history", path)
	}
	if err != nil {
		return 0, fmt.Errorf("storage: open for replay: %w", err)
	}
	defer f.Close()

	br := bufio.NewReaderSize(f, 1<<16)
	var off int64
	line := 0
	for {
		chunk, rerr := br.ReadBytes('\n')
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return 0, fmt.Errorf("storage: read wal: %w", rerr)
		}
		content := bytes.TrimSpace(chunk)
		if len(content) > 0 {
			line++
			if terminated := chunk[len(chunk)-1] == '\n'; !terminated {
				// A record is durable only once its terminating newline is
				// on disk: an unterminated final line is a torn append even
				// when the JSON happens to parse (and appending after a
				// truncation there would otherwise fuse two records).
				if tornOK {
					return committedLen, nil
				}
				return 0, fmt.Errorf("storage: torn record at end of sealed segment %s line %d", path, line)
			}
			rec, derr := record.Decode(content)
			if derr != nil {
				if tornOK && restIsWhitespace(br) {
					// Crash mid-append: tolerate and stop before the torn line.
					return committedLen, nil
				}
				return 0, fmt.Errorf("storage: corrupt wal record at %s line %d: %w", path, line, derr)
			}
			if err := st.emit(rec); err != nil {
				return 0, err
			}
			if _, isCommit := rec.(*record.CommitRecord); isCommit {
				committedLen = off + int64(len(chunk))
			}
		}
		off += int64(len(chunk))
		if rerr != nil {
			return committedLen, nil
		}
	}
}

// restIsWhitespace reports whether everything left in the reader is
// whitespace — i.e. whether a decode failure hit the torn final line rather
// than corruption in the middle of the log.
func restIsWhitespace(br *bufio.Reader) bool {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return true
		}
		switch b {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
}
