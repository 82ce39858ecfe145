package hostlib

import (
	"fmt"
	"strconv"

	flor "flordb"
	"flordb/internal/mlsim"
	"flordb/internal/replay"
	"flordb/internal/script"
)

// RegisterFlorQueries installs host functions that query the FlorDB session
// itself — the paper's "model registry" role (§4.2): selecting and loading
// the best checkpoint by a validation metric.
func RegisterFlorQueries(r Registrar, sess *flor.Session) {
	// restore_best(model, metric): find the (tstamp, epoch) with the highest
	// metric across all runs, load that epoch's checkpoint, restore the model.
	r.RegisterHost("restore_best", func(args []script.Value, _ map[string]script.Value) (script.Value, error) {
		m, ok := argAt(args, 0).(*mlsim.MLP)
		if !ok {
			return nil, fmt.Errorf("restore_best: first argument must be a model")
		}
		metric, err := strArg(args, 1)
		if err != nil {
			return nil, err
		}
		ts, iter, val, err := BestCheckpoint(sess, metric)
		if err != nil {
			return nil, err
		}
		blob, err := EpochCheckpoint(sess, ts, iter)
		if err != nil {
			return nil, err
		}
		if err := replay.RestoreObjects(blob, map[string]script.Value{"model": m}); err != nil {
			return nil, err
		}
		return val, nil
	})
	// best_metric(metric) -> highest recorded value of the metric.
	r.RegisterHost("best_metric", func(args []script.Value, _ map[string]script.Value) (script.Value, error) {
		metric, err := strArg(args, 0)
		if err != nil {
			return nil, err
		}
		_, _, val, err := BestCheckpoint(sess, metric)
		if err != nil {
			return nil, err
		}
		return val, nil
	})
}

// BestCheckpoint returns the (tstamp, epoch, value) of the best recorded
// value for a metric logged at epoch level — the query behind the paper's
// flor.dataframe("acc", "recall") checkpoint selection.
func BestCheckpoint(sess *flor.Session, metric string) (tstamp int64, epoch int, value float64, err error) {
	df, err := sess.Dataframe(metric)
	if err != nil {
		return 0, 0, 0, err
	}
	best, err := df.ArgMax(metric)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("restore_best: no %q values recorded: %w", metric, err)
	}
	ti := df.Index("tstamp")
	ei := df.Index("epoch_value")
	if ei < 0 {
		return 0, 0, 0, fmt.Errorf("restore_best: %q was not logged inside an epoch loop", metric)
	}
	ep, err := strconv.Atoi(best[ei].AsText())
	if err != nil {
		return 0, 0, 0, fmt.Errorf("restore_best: bad epoch value %q", best[ei].AsText())
	}
	return best[ti].AsInt(), ep, best[df.Index(metric)].AsFloat(), nil
}

// EpochCheckpoint reads the checkpoint of the "epoch" loop's iteration epoch
// taken by version tstamp, through a latest pin of the session's tables — the
// visibility BestCheckpoint's dataframe reads at.
func EpochCheckpoint(sess *flor.Session, tstamp int64, epoch int) ([]byte, error) {
	snap := sess.Database().SnapshotLatest()
	view, err := sess.Tables().At(snap)
	if err != nil {
		return nil, err
	}
	blob, found := view.GetBlobExact(sess.ProjID, replay.CkptBlobName("epoch", epoch), tstamp)
	if !found {
		return nil, fmt.Errorf("restore_best: no checkpoint for epoch %d at version %d", epoch, tstamp)
	}
	return blob, nil
}
