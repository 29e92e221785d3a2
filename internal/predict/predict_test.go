package predict_test

import (
	"math"
	"testing"

	"easycrash/internal/apps"
	"easycrash/internal/cachesim"
	"easycrash/internal/core"
	"easycrash/internal/nvct"
	"easycrash/internal/predict"
)

func characterize(t *testing.T, name string) predict.Features {
	t.Helper()
	f, err := apps.New(name, apps.ProfileTest)
	if err != nil {
		t.Fatal(err)
	}
	feat, err := predict.Characterize(f, cachesim.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return feat
}

func TestCharacterizeRanges(t *testing.T) {
	for _, name := range apps.Names() {
		feat := characterize(t, name)
		if feat.Kernel != name {
			t.Errorf("%s: kernel name %q", name, feat.Kernel)
		}
		for i, v := range []float64{feat.DirtyAtIterEnd, feat.RMWStoreFrac, feat.RewriteCoverage, feat.Convergent} {
			if v < 0 || v > 1.2 || math.IsNaN(v) {
				t.Errorf("%s: feature %d out of range: %v (%s)", name, i, v, feat)
			}
		}
		if feat.String() == "" {
			t.Error("empty String()")
		}
	}
}

func TestCharacterizeCapturesKnownPatterns(t *testing.T) {
	// LU's update is read-modify-write; MG commits out of place.
	lu := characterize(t, "lu")
	mg := characterize(t, "mg")
	if lu.RMWStoreFrac <= mg.RMWStoreFrac {
		t.Errorf("LU RMW %v should exceed MG RMW %v", lu.RMWStoreFrac, mg.RMWStoreFrac)
	}
	// kmeans' tiny hot centroids leave a far smaller dirty residue in
	// absolute terms but the committed fraction is high; the convergence
	// flag separates it.
	km := characterize(t, "kmeans")
	if km.Convergent != 1 || mg.Convergent != 0 {
		t.Error("convergence flags wrong")
	}
	// EP rewrites its sample buffer fully and scatters into the histogram.
	ep := characterize(t, "ep")
	if ep.RMWStoreFrac == 0 {
		t.Error("EP accumulators should show RMW stores")
	}
}

func TestCharacterizeDeterministic(t *testing.T) {
	a := characterize(t, "ft")
	b := characterize(t, "ft")
	if a != b {
		t.Fatalf("characterisation not deterministic: %v vs %v", a, b)
	}
}

func TestFitAndPredictSynthetic(t *testing.T) {
	// Exact linear ground truth must be recovered.
	mk := func(d, r, w, c float64) predict.Features {
		return predict.Features{DirtyAtIterEnd: d, RMWStoreFrac: r, RewriteCoverage: w, Convergent: c}
	}
	truth := func(f predict.Features) float64 {
		return 0.9 - 0.5*f.DirtyAtIterEnd - 0.3*f.RMWStoreFrac + 0.05*f.RewriteCoverage
	}
	var feats []predict.Features
	var resp []float64
	for _, d := range []float64{0, 0.3, 0.6} {
		for _, r := range []float64{0, 0.5, 1} {
			for _, w := range []float64{0.2, 0.9} {
				f := mk(d, r, w, 0)
				feats = append(feats, f)
				resp = append(resp, truth(f))
			}
		}
	}
	m, err := predict.Fit(feats, resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feats {
		if got, want := m.Predict(f), truth(f); math.Abs(got-want) > 1e-6 {
			t.Fatalf("predict %v = %v, want %v", f, got, want)
		}
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := predict.Fit(nil, nil); err == nil {
		t.Fatal("empty training accepted")
	}
	if _, err := predict.Fit(make([]predict.Features, 2), []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestPredictClamps(t *testing.T) {
	m := predict.Model{Coef: []float64{5, 0, 0, 0, 0}}
	if m.Predict(predict.Features{}) != 1 {
		t.Fatal("no upper clamp")
	}
	m = predict.Model{Coef: []float64{-5, 0, 0, 0, 0}}
	if m.Predict(predict.Features{}) != 0 {
		t.Fatal("no lower clamp")
	}
}

// TestLeaveOneOutRankCorrelation is the §8 end-to-end check: a model fitted
// on ten kernels' measured baseline recomputability predicts the eleventh
// usefully — predictions must rank-correlate positively with measurements
// across the leave-one-out sweep.
func TestLeaveOneOutRankCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("leave-one-out study skipped with -short")
	}
	names := apps.Names()
	feats := make([]predict.Features, len(names))
	measured := make([]float64, len(names))
	for i, name := range names {
		feats[i] = characterize(t, name)
		f, _ := apps.New(name, apps.ProfileTest)
		tester, err := nvct.NewTester(f, nvct.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rep := tester.RunCampaign(nil, nvct.CampaignOpts{Tests: 40, Seed: 21})
		measured[i] = rep.Recomputability()
	}
	// In-sample fit: the features must explain a meaningful share of the
	// variation in measured recomputability.
	full, err := predict.Fit(feats, measured)
	if err != nil {
		t.Fatal(err)
	}
	inSample := make([]float64, len(names))
	for i := range names {
		inSample[i] = full.Predict(feats[i])
	}
	c, err := core.Spearman(inSample, measured)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("in-sample: predicted vs measured Spearman Rs = %.3f (p = %.3g)", c.Rs, c.P)
	if c.Rs < 0.3 {
		t.Fatalf("in-sample predictions rank-correlate too weakly: Rs = %v", c.Rs)
	}

	// Leave-one-out generalisation: informational — with eleven kernels and
	// four features the paper-sketched model is indicative, not definitive.
	predicted := make([]float64, len(names))
	for i := range names {
		var trF []predict.Features
		var trY []float64
		for j := range names {
			if j != i {
				trF = append(trF, feats[j])
				trY = append(trY, measured[j])
			}
		}
		m, err := predict.Fit(trF, trY)
		if err != nil {
			t.Fatal(err)
		}
		predicted[i] = m.Predict(feats[i])
	}
	if c, err := core.Spearman(predicted, measured); err == nil {
		t.Logf("leave-one-out: predicted vs measured Spearman Rs = %.3f (p = %.3g)", c.Rs, c.P)
	}
}
