package hostlib

import (
	"strings"
	"testing"

	flor "flordb"
	"flordb/internal/docsim"
	"flordb/internal/relation"
	"flordb/internal/script"
)

// TestPostHocGovernanceEnforcement reproduces §4's "Post-Hoc Governance
// Enforcement: apply governance policies retroactively to identify and
// handle issues like corrupted or malicious datasets (e.g., detecting a
// poisoned dataset)".
//
// Scenario: the featurization pipeline (Figure 3) ran over a corpus weeks
// ago. Nobody checked for poisoned content at the time. Governance later
// defines a policy ("pages containing the POISON marker are malicious") —
// the check is added to the NEWEST featurize.flow, hindsight logging
// backfills the flag into the historical run, and a SQL query identifies
// the affected documents.
func TestPostHocGovernanceEnforcement(t *testing.T) {
	sess, err := flor.OpenMemory("pdf", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// A corpus with two poisoned pages.
	st := NewState(docsim.Config{NumDocs: 5, MinPages: 3, MaxPages: 4, OCRFraction: 0.3, Seed: 9}, 16)
	st.Corpus.Docs[1].Pages[0].Text += "\nPOISON-MARKER-7f3a\n"
	st.Corpus.Docs[3].Pages[2].Text += "\nPOISON-MARKER-7f3a\n"
	Register(sess, st)

	// Historical run: Figure-3 featurization, with no poison check.
	if err := sess.RunScript("featurize.flow", FeaturizeSrc); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit("featurize run"); err != nil {
		t.Fatal(err)
	}
	histTs := sess.Tstamp() - 1

	// Sanity: at this point no governance metadata exists.
	if res, _ := sess.SQL("SELECT count(*) AS n FROM logs WHERE value_name = 'poisoned'"); res.Rows[0][0].AsInt() != 0 {
		t.Fatal("poison flags exist before the audit")
	}

	// Governance arrives: the NEWEST featurize.flow gains the policy check.
	audited := strings.Replace(FeaturizeSrc,
		`flor.log("page_text", page_text)`,
		`flor.log("page_text", page_text)
        flor.log("poisoned", "POISON-MARKER" in page_text)`, 1)
	if audited == FeaturizeSrc {
		t.Fatal("test setup: replacement failed")
	}

	reports, err := sess.Hindsight("featurize.flow", audited, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	rep := reports[0]
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Tstamp != histTs {
		t.Fatalf("replayed wrong version: %d", rep.Tstamp)
	}
	if rep.Injected != 1 {
		t.Fatalf("injected = %d", rep.Injected)
	}
	if rep.Stats.LogsEmitted != st.Corpus.NumPages() {
		t.Fatalf("poison flags = %d want %d", rep.Stats.LogsEmitted, st.Corpus.NumPages())
	}

	// The governance query: which documents violated the policy, and where?
	res, err := sess.SQL(`
		SELECT o.loop_name, o.iteration_value, count(*) AS n
		FROM logs l JOIN loops o ON l.ctx_id = o.ctx_id
		WHERE l.value_name = 'poisoned' AND l.value = 'true' AND o.loop_name = 'page'
		GROUP BY o.loop_name, o.iteration_value
		ORDER BY o.iteration_value`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // pages 0 and 2
		t.Fatalf("violating pages: %v", res.Rows)
	}

	// Document-level attribution via the dataframe's dimension columns.
	df, err := sess.Dataframe("poisoned")
	if err != nil {
		t.Fatal(err)
	}
	di := df.Index("document_value")
	pi := df.Index("page_value")
	vi := df.Index("poisoned")
	var flagged []string
	for _, r := range df.Rows {
		if !r[vi].IsNull() && r[vi].Type() == relation.TBool && r[vi].AsBool() {
			flagged = append(flagged, r[di].AsText()+":"+r[pi].AsText())
		}
	}
	want := []string{"doc001.pdf:0", "doc003.pdf:2"}
	if len(flagged) != 2 || flagged[0] != want[0] || flagged[1] != want[1] {
		t.Fatalf("flagged = %v want %v", flagged, want)
	}

	// The historical run's other metadata was NOT disturbed (no duplicates).
	cres, err := sess.SQL("SELECT count(*) AS n FROM logs WHERE value_name = 'text_src'")
	if err != nil {
		t.Fatal(err)
	}
	if cres.Rows[0][0].AsInt() != int64(st.Corpus.NumPages()) {
		t.Fatalf("text_src rows = %v (duplicated by replay?)", cres.Rows[0][0])
	}
}

// TestGovernanceAuditChart exercises the §4 metric-registry role on
// hindsight-materialized data: a backfilled metric is a numeric series over
// epochs for every version, the input a per-version plot draws.
func TestGovernanceAuditChart(t *testing.T) {
	sess, err := flor.OpenMemory("pdf", flor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := demoState()
	Register(sess, st)
	for v := 0; v < 2; v++ {
		if err := sess.RunScript("train.flow", TrainSrc); err != nil {
			t.Fatal(err)
		}
		if err := sess.Commit("run"); err != nil {
			t.Fatal(err)
		}
	}
	df, err := sess.Dataframe("acc")
	if err != nil {
		t.Fatal(err)
	}
	ti, ai, ei := df.Index("tstamp"), df.Index("acc"), df.Index("epoch_value")
	if ti < 0 || ai < 0 || ei < 0 {
		t.Fatalf("columns: %v", df.Columns)
	}
	points := map[int64]int{}
	for _, r := range df.Rows {
		if _, err := relation.Coerce(r[ai], relation.TFloat); err == nil && !r[ai].IsNull() && !r[ei].IsNull() {
			points[r[ti].AsInt()]++
		}
	}
	if points[1] == 0 || points[2] == 0 {
		t.Fatalf("acc points per version: %v\n%s", points, df)
	}
}

// Compile-time check that hostlib's Registrar matches both the session and
// the interpreter.
var (
	_ Registrar = (*flor.Session)(nil)
	_ Registrar = (*script.Interp)(nil)
)
