package flor

import "flordb/internal/record"

// EpochStamps returns the session's retained epoch↔commit-wall stamps, so
// external tests can probe AS OF TIMESTAMP at each commit's own stamp.
func (s *Session) EpochStamps() []record.EpochStamp { return s.epochs.Stamps() }
