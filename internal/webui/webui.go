// Package webui is the reproduction of the paper's Flask feedback
// application (§4.4, Figure 6): a web server that displays documents and
// model predictions, and captures human label corrections through the same
// FlorDB metadata infrastructure as computational steps — provenance for
// machine-generated and human-provided labels alike.
//
// Routes mirror the paper:
//
//	GET  /             — home page listing documents
//	GET  /view-pdf     — one document's pages with current page colors
//	POST /save_colors  — expert corrections, logged via flor.iteration +
//	                     flor.loop("page") + flor.commit (Figure 6's code)
//	GET  /api/metrics  — the model-registry view (acc/recall dataframe)
package webui

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"strconv"

	flor "flordb"
	"flordb/internal/docsim"
	"flordb/internal/relation"
	"flordb/internal/script"
)

// Server wires the feedback UI to a FlorDB session and a document corpus.
type Server struct {
	Sess   *flor.Session
	Corpus *docsim.Corpus
	// Predict returns the model's first-page probability per page of a
	// document; used to derive default page colors when no human labels
	// exist (get_colors() in Figure 6).
	Predict func(doc *docsim.Document) []bool

	mux *http.ServeMux
}

// NewServer builds the server and its routes.
func NewServer(sess *flor.Session, corpus *docsim.Corpus, predict func(*docsim.Document) []bool) *Server {
	s := &Server{Sess: sess, Corpus: corpus, Predict: predict, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleHome)
	s.mux.HandleFunc("/view-pdf", s.handleViewPDF)
	s.mux.HandleFunc("/save_colors", s.handleSaveColors)
	s.mux.HandleFunc("/api/metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

var homeTmpl = template.Must(template.New("home").Parse(`<!doctype html>
<html><head><title>FlorDB PDF Parser</title></head><body>
<h1>PDF Parser</h1>
<ul>
{{range .}}<li><a href="/view-pdf?doc={{.}}">{{.}}</a></li>
{{end}}</ul>
</body></html>`))

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := homeTmpl.Execute(w, s.Corpus.DocNames()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// pageView is one page in the view-pdf response.
type pageView struct {
	Page    int    `json:"page"`
	TextSrc string `json:"text_src"`
	Color   int    `json:"color"`
	Source  string `json:"source"` // "human" or "model"
}

// GetColors reproduces Figure 6's get_colors(): fetch the latest page_color
// labels for the document; where human labels are absent, derive colors from
// the model's first_page predictions via cumulative sum.
//
// The read runs against a snapshot pinned at call time: a concurrent
// save_colors script (or any other writer) can neither block the request
// nor be observed mid-transaction.
func (s *Server) GetColors(docName string) ([]pageView, error) {
	doc, ok := s.Corpus.Doc(docName)
	if !ok {
		return nil, fmt.Errorf("webui: no document %q", docName)
	}
	n := len(doc.Pages)
	views := make([]pageView, n)
	for i := range views {
		views[i] = pageView{Page: i, TextSrc: doc.Pages[i].TextSrc, Color: -1}
	}

	// Human labels: flor.dataframe("page_color"), latest, this document.
	// Committed-epoch snapshot: save_colors writes a document's labels in
	// one script transaction, and script runs (with their commits) are
	// serialized by the session, so this read sees all of a label set or
	// none — never a half-written one.
	view, err := s.Sess.Reader()
	if err != nil {
		return nil, err
	}
	df, err := view.Dataframe("page_color")
	if err == nil && df.Len() > 0 {
		di := df.Index("document_value")
		pi := df.Index("page_value")
		ci := df.Index("page_color")
		if di >= 0 && pi >= 0 && ci >= 0 {
			sub := df.Filter(func(r relation.Row) bool {
				return !r[di].IsNull() && r[di].AsText() == docName
			}).Latest()
			for _, r := range sub.Rows {
				if r[pi].IsNull() || r[ci].IsNull() {
					continue
				}
				p, err := strconv.Atoi(r[pi].AsText())
				if err != nil || p < 0 || p >= n {
					continue
				}
				c, err := relation.Coerce(r[ci], relation.TInt)
				if err != nil {
					continue
				}
				views[p].Color = int(c.AsInt())
				views[p].Source = "human"
			}
		}
	}

	// Fill gaps from model predictions: color = cumsum(first_page) - 1.
	if s.Predict != nil {
		firsts := s.Predict(doc)
		cum := 0
		for i := 0; i < n && i < len(firsts); i++ {
			if firsts[i] {
				cum++
			}
			if views[i].Color < 0 {
				views[i].Color = cum - 1
				views[i].Source = "model"
			}
		}
	}
	return views, nil
}

func (s *Server) handleViewPDF(w http.ResponseWriter, r *http.Request) {
	doc := r.URL.Query().Get("doc")
	views, err := s.GetColors(doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"document": doc, "pages": views})
}

// saveColorsRequest is the POST body for /save_colors.
type saveColorsRequest struct {
	Doc    string `json:"doc"`
	Colors []int  `json:"colors"`
}

// SaveColors reproduces Figure 6's save_colors(): log each page's color
// under a flor.iteration("document") context and commit.
func (s *Server) SaveColors(docName string, colors []int) error {
	doc, ok := s.Corpus.Doc(docName)
	if !ok {
		return fmt.Errorf("webui: no document %q", docName)
	}
	if len(colors) != len(doc.Pages) {
		return fmt.Errorf("webui: %d colors for %d pages", len(colors), len(doc.Pages))
	}
	src := fmt.Sprintf(`colors = __colors__()
with flor.iteration("document", nil, %q) {
    for i in flor.loop("page", range(%d)) {
        flor.log("page_color", colors[i])
    }
}
flor.commit()
`, docName, len(colors))
	vals := make([]script.Value, len(colors))
	for i, c := range colors {
		vals[i] = int64(c)
	}
	s.Sess.RegisterHost("__colors__", func([]script.Value, map[string]script.Value) (script.Value, error) {
		return script.NewList(append([]script.Value(nil), vals...)...), nil
	})
	return s.Sess.RunScript("webui.flow", src)
}

func (s *Server) handleSaveColors(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req saveColorsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.SaveColors(req.Doc, req.Colors); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"message": "Colors saved"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Snapshot read: the model-registry view is consistent even while a
	// training run streams new metrics into the session.
	view, err := s.Sess.LatestReader()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	df, err := view.Dataframe("acc", "recall")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	fmt.Fprint(w, df.ToCSV())
}
