package characterize

import (
	"math"

	"dbwlm/internal/learn"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/workload"
)

// WorkloadType is the label produced by dynamic characterization.
type WorkloadType int

// Workload types the dynamic classifier distinguishes.
const (
	TypeOLTP WorkloadType = iota
	TypeOLAP
	TypeMixed
)

// String names the workload type.
func (t WorkloadType) String() string {
	switch t {
	case TypeOLTP:
		return "OLTP"
	case TypeOLAP:
		return "OLAP"
	default:
		return "MIXED"
	}
}

// numWorkloadTypes is the label-space size for training.
const numWorkloadTypes = 3

// SnapshotFeatures summarizes a window of recent requests into the feature
// vector the dynamic classifier consumes: the workload "characteristics" of
// Section 3.1 (cost, resource demand, statement mix, result sizes).
func SnapshotFeatures(reqs []*workload.Request) []float64 {
	if len(reqs) == 0 {
		return []float64{0, 0, 0, 0, 0}
	}
	var logCost, writeFrac, logRows, logMem, heavyFrac float64
	for _, r := range reqs {
		logCost += math.Log1p(r.Est.Timerons)
		if r.Type != sqlmini.StmtRead {
			writeFrac++
		}
		logRows += math.Log1p(r.Est.Rows)
		logMem += math.Log1p(r.Est.MemMB)
		if r.Est.Timerons > 10_000 {
			heavyFrac++
		}
	}
	n := float64(len(reqs))
	return []float64{logCost / n, writeFrac / n, logRows / n, logMem / n, heavyFrac / n}
}

// DynamicClassifier identifies the type of workload present on the server
// from windows of arriving requests (Section 3.1, dynamic characterization).
type DynamicClassifier struct {
	model learn.Classifier
}

// LabeledWindow is one training window: requests plus the ground-truth type.
type LabeledWindow struct {
	Requests []*workload.Request
	Label    WorkloadType
}

// TrainDynamicClassifier learns a classifier from labeled windows. algorithm
// is "bayes" (default) or "tree".
//
//dbwlm:nolint deadcode -- registry row "ML workload-type classification" runs only under tests; the ROADMAP item "Every registry row runs in a binary, or is deleted" wires it in or deletes it
func TrainDynamicClassifier(windows []LabeledWindow, algorithm string) *DynamicClassifier {
	samples := make([]learn.Sample, 0, len(windows))
	for _, w := range windows {
		samples = append(samples, learn.Sample{
			Features: SnapshotFeatures(w.Requests),
			Label:    int(w.Label),
		})
	}
	var model learn.Classifier
	if algorithm == "tree" {
		model = learn.TrainDecisionTree(samples, numWorkloadTypes, learn.TreeConfig{MaxDepth: 6})
	} else {
		model = learn.TrainNaiveBayes(samples, numWorkloadTypes)
	}
	return &DynamicClassifier{model: model}
}

// Classify labels a window of recent requests.
//
//dbwlm:nolint deadcode -- registry row "ML workload-type classification" runs only under tests; the ROADMAP item "Every registry row runs in a binary, or is deleted" wires it in or deletes it
func (c *DynamicClassifier) Classify(reqs []*workload.Request) WorkloadType {
	return WorkloadType(c.model.Predict(SnapshotFeatures(reqs)))
}
