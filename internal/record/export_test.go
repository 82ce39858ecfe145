package record

// Exported for the external tests in this directory, which drive storage
// recovery over snapshots the product cannot write.
var (
	TamperedSnapshot = tamperedSnapshot
	SnapshotDefects  = snapshotDefects
)
