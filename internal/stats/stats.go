package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when a computation needs more samples
// than were provided.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (divisor n-1) of xs.
// It returns 0 when fewer than two samples are provided.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the smallest element of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs using linear interpolation between
// midpoints for even-length inputs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It returns 0 for an empty
// slice. p is clamped to [0, 100].
func Percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return xs[0]
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ECDF represents an empirical cumulative distribution function built
// from a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// P returns P(X <= x), the fraction of samples less than or equal to x.
func (e *ECDF) P(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with sorted[i] > x.
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the smallest sample value v such that P(X <= v) >= q,
// for q in (0, 1].
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return e.sorted[idx]
}

// Len returns the number of samples in the ECDF.
func (e *ECDF) Len() int { return len(e.sorted) }

// WelchResult holds the outcome of Welch's unequal variances t-test.
type WelchResult struct {
	T  float64 // t statistic
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // one-tailed p-value for H1: mean(a) > mean(b)
}

// WelchTTest performs Welch's unequal variances t-test comparing the means
// of a and b. The returned p-value is one-tailed, testing the alternative
// hypothesis mean(a) > mean(b) — the form used in Section 2.3 of the paper
// (significance level 0.02). Both samples need at least two observations.
func WelchTTest(a, b []float64) (WelchResult, error) {
	if len(a) < 2 || len(b) < 2 {
		return WelchResult{}, ErrInsufficientData
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	sa, sb := va/na, vb/nb
	se := math.Sqrt(sa + sb)
	if se == 0 {
		// Identical constant samples: no evidence of difference.
		if ma == mb {
			return WelchResult{T: 0, DF: na + nb - 2, P: 0.5}, nil
		}
		t := math.Inf(1)
		if ma < mb {
			t = math.Inf(-1)
		}
		p := 0.0
		if ma < mb {
			p = 1.0
		}
		return WelchResult{T: t, DF: na + nb - 2, P: p}, nil
	}
	t := (ma - mb) / se
	num := (sa + sb) * (sa + sb)
	den := sa*sa/(na-1) + sb*sb/(nb-1)
	df := num / den
	p := 1 - StudentTCDF(t, df)
	return WelchResult{T: t, DF: df, P: p}, nil
}

// StudentTCDF returns the CDF of Student's t-distribution with df degrees
// of freedom evaluated at t, via the regularized incomplete beta function.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	ib := regIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - 0.5*ib
	}
	return 0.5 * ib
}

// StudentTQuantile returns the two-sided critical value t* such that a
// Student-t variable with df degrees of freedom satisfies
// P(-t* <= T <= t*) = confidence. It is used to build confidence intervals
// such as the 95% CIs in Figure 3(a).
func StudentTQuantile(confidence, df float64) float64 {
	if df <= 0 || confidence <= 0 || confidence >= 1 {
		return math.NaN()
	}
	// Target upper-tail probability.
	target := 1 - (1-confidence)/2
	// CDF is monotone in t; bisect.
	lo, hi := 0.0, 1e6
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if StudentTCDF(mid, df) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// MeanCI returns the mean of xs with the half-width of its two-sided
// confidence interval at the given confidence level (e.g. 0.95). It returns
// a zero half-width for fewer than two samples.
func MeanCI(xs []float64, confidence float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	n := len(xs)
	if n < 2 {
		return mean, 0
	}
	se := StdDev(xs) / math.Sqrt(float64(n))
	tcrit := StudentTQuantile(confidence, float64(n-1))
	return mean, tcrit * se
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes style).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
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
		fpMin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpMin {
		d = fpMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
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

// Linear is a fitted simple linear regression y = Slope*x + Intercept.
type Linear struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination
	SlopeSE   float64 // standard error of the slope
	N         int
}

// LinearFit fits an ordinary least-squares line through (xs[i], ys[i]).
// It is used for the control-plane CPU model in Figure 10(a).
func LinearFit(xs, ys []float64) (Linear, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return Linear{}, ErrInsufficientData
	}
	n := float64(len(xs))
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Linear{}, errors.New("stats: degenerate x values")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	var ssRes float64
	for i := range xs {
		r := ys[i] - (slope*xs[i] + intercept)
		ssRes += r * r
	}
	r2 := 1.0
	if syy > 0 {
		r2 = 1 - ssRes/syy
	}
	var slopeSE float64
	if len(xs) > 2 {
		slopeSE = math.Sqrt(ssRes / (n - 2) / sxx)
	}
	return Linear{Slope: slope, Intercept: intercept, R2: r2, SlopeSE: slopeSE, N: len(xs)}, nil
}

// SolveFor returns the x at which the fitted line reaches y. It returns
// NaN when the slope is zero.
func (l Linear) SolveFor(y float64) float64 {
	if l.Slope == 0 {
		return math.NaN()
	}
	return (y - l.Intercept) / l.Slope
}

// SlopeCI returns the half-width of the two-sided confidence interval for
// the slope at the given confidence level.
func (l Linear) SlopeCI(confidence float64) float64 {
	if l.N <= 2 {
		return 0
	}
	return StudentTQuantile(confidence, float64(l.N-2)) * l.SlopeSE
}
