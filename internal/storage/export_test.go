package storage

// Replay streams every decodable record in the single WAL file at path to
// fn, in order, as recovery reads the active file: a torn final line is
// tolerated, and with strictCommits the records after the last commit are
// not delivered.
func Replay(path string, strictCommits bool, fn func(rec any) error) error {
	_, err := replayFile(path, true, &replayState{strict: strictCommits, fn: fn})
	return err
}

// Pending reports how many records are buffered but not yet flushed.
func (w *WAL) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending
}
