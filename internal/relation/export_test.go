package relation

// OldestPin is oldestPin, for the retention tests.
func (db *Database) OldestPin() int64 { return db.oldestPin() }
