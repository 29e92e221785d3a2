package core

// The statistics Step 2's data-object selection relies on (§5.1 of the
// paper): Spearman's rank correlation coefficient with tie-aware ranking,
// and its two-tailed p-value via the Student-t approximation.

import (
	"errors"
	"math"
	"sort"
)

// errTooFewSamples is returned when a correlation needs more observations.
var errTooFewSamples = errors.New("stats: need at least 3 paired samples")

// errConstantInput is returned when an input vector has zero variance, which
// makes the rank correlation undefined.
var errConstantInput = errors.New("stats: input vector is constant")

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ranks assigns fractional ranks (1-based), averaging ranks across ties —
// the ranking Spearman's coefficient requires.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// pearson returns the Pearson product-moment correlation of two equal-length
// vectors. It returns errConstantInput if either vector has zero variance.
func pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, errTooFewSamples
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errConstantInput
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Clamp numerical drift.
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r, nil
}

// Correlation is the result of a Spearman rank correlation test.
type Correlation struct {
	Rs float64 // Spearman's rank correlation coefficient
	P  float64 // two-tailed p-value (Student-t approximation)
	N  int     // number of paired observations
}

// Spearman computes Spearman's rank correlation between xs and ys with
// tie-aware ranking, and the two-tailed p-value of the null hypothesis of no
// association, using the t-distribution approximation
// t = r*sqrt((n-2)/(1-r²)) with n-2 degrees of freedom (Zar 1972).
func Spearman(xs, ys []float64) (Correlation, error) {
	if len(xs) != len(ys) {
		return Correlation{}, errors.New("stats: length mismatch")
	}
	n := len(xs)
	if n < 3 {
		return Correlation{}, errTooFewSamples
	}
	rs, err := pearson(ranks(xs), ranks(ys))
	if err != nil {
		return Correlation{}, err
	}
	return Correlation{Rs: rs, P: spearmanP(rs, n), N: n}, nil
}

// spearmanP returns the two-tailed p-value for a Spearman coefficient.
func spearmanP(rs float64, n int) float64 {
	if n < 3 {
		return 1
	}
	if rs >= 1 || rs <= -1 {
		return 0
	}
	df := float64(n - 2)
	t := rs * math.Sqrt(df/(1-rs*rs))
	return tcdf2Tail(t, df)
}

// tcdf2Tail returns the two-tailed tail probability P(|T| >= |t|) for a
// Student-t variate with df degrees of freedom, via the regularized
// incomplete beta function: P = I_{df/(df+t²)}(df/2, 1/2).
func tcdf2Tail(t, df float64) float64 {
	if math.IsNaN(t) || df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	p := regIncBeta(df/2, 0.5, x)
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	return p
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Lentz's method), the standard
// numerical approach for t- and F-distribution tails.
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
