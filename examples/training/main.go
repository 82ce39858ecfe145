// Training reproduces Figure 5 of the paper: an MLP trained on the corpus's
// first-page classification task under flor.checkpointing, logging loss per
// step and acc/recall per epoch, with the model registry role of §4.2 —
// query the metric history, pick the best checkpoint, and restore it.
//
//	go run ./examples/training
package main

import (
	"fmt"
	"log"
	"os"

	flor "flordb"
	"flordb/internal/docsim"
	"flordb/internal/hostlib"
	"flordb/internal/mlsim"
	"flordb/internal/replay"
)

func main() {
	dir, err := os.MkdirTemp("", "flor-training")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	sess, err := flor.Open(dir, "pdf-parser", flor.Options{
		Policy: replay.EveryN{N: 1},
		Args:   map[string]string{"epochs": "6"},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	st := hostlib.NewState(docsim.Config{
		NumDocs: 12, MinPages: 4, MaxPages: 8, OCRFraction: 0.4, Seed: 7,
	}, 16)
	hostlib.Register(sess, st)
	hostlib.RegisterFlorQueries(sess, sess)

	fmt.Println("running train.flow (the paper's Figure 5)...")
	if err := sess.RunScript("train.flow", hostlib.TrainSrc); err != nil {
		log.Fatal(err)
	}
	if err := sess.Commit("training run"); err != nil {
		log.Fatal(err)
	}

	// Metric registry: per-epoch metrics, exactly Figure 5's dataframe.
	df, err := sess.Dataframe("acc", "recall")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nflor.dataframe(\"acc\", \"recall\"):")
	fmt.Print(df.String())

	// Model registry: restore the best checkpoint by recall (§4.2).
	ts, epoch, val, err := hostlib.BestCheckpoint(sess, "recall")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest checkpoint: version=%d epoch=%d recall=%.4f\n", ts, epoch, val)

	net := mlsim.NewMLP(st.Dim, 32, 2, mlsim.NewRNG(7))
	blob, err := hostlib.EpochCheckpoint(sess, ts, epoch)
	if err != nil {
		log.Fatal(err)
	}
	if err := replay.RestoreObjects(blob, map[string]any{"model": net}); err != nil {
		log.Fatal(err)
	}
	met := mlsim.Evaluate(net, st.Test)
	fmt.Printf("restored model evaluates to acc=%.4f recall=%.4f (matches registry)\n",
		met.Accuracy, met.MacroRecall)

	// Loss curve at step granularity.
	ldf, err := sess.Dataframe("loss")
	if err != nil {
		log.Fatal(err)
	}
	losses, _ := ldf.Column("loss")
	fmt.Printf("\nlogged %d step losses; first=%.4f last=%.4f\n",
		len(losses), losses[0].AsFloat(), losses[len(losses)-1].AsFloat())
}
