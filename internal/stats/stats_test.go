package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceBasic(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEq(got, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Sample variance with n-1 divisor: sum sq dev = 32, / 7.
	if got := Variance(xs); !almostEq(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Fatalf("Variance(single) = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{95, 48},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Percentile([]float64{1, 3, 2}, 50); got != 2 {
		t.Fatalf("Median odd = %v", got)
	}
	if got := Percentile([]float64{1, 2, 3, 4}, 50); !almostEq(got, 2.5, 1e-12) {
		t.Fatalf("Median even = %v", got)
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pp := math.Mod(math.Abs(p), 100)
		v := Percentile(xs, pp)
		return v >= slices.Min(xs)-1e-9 && v <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.P(c.x); !almostEq(got, c.want, 1e-12) {
			t.Errorf("P(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		e := NewECDF(xs)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return e.P(a) <= e.P(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStudentTCDFSymmetry(t *testing.T) {
	for _, df := range []float64{1, 2, 5, 10, 30, 100} {
		for _, x := range []float64{0, 0.5, 1, 2, 5} {
			p := StudentTCDF(x, df)
			q := StudentTCDF(-x, df)
			if !almostEq(p+q, 1, 1e-9) {
				t.Errorf("CDF(%v,df=%v)+CDF(-x) = %v, want 1", x, df, p+q)
			}
		}
		if got := StudentTCDF(0, df); !almostEq(got, 0.5, 1e-12) {
			t.Errorf("CDF(0, df=%v) = %v, want 0.5", df, got)
		}
	}
}

func TestStudentTQuantileKnownValues(t *testing.T) {
	// Standard t-table values.
	cases := []struct {
		conf, df, want float64
	}{
		{0.95, 10, 2.228},
		{0.95, 30, 2.042},
		{0.99, 10, 3.169},
		{0.95, 1, 12.706},
	}
	for _, c := range cases {
		if got := StudentTQuantile(c.conf, c.df); !almostEq(got, c.want, 0.01) {
			t.Errorf("tQuantile(%v, %v) = %v, want %v", c.conf, c.df, got, c.want)
		}
	}
}

func TestWelchTTestDistinguishes(t *testing.T) {
	// Clearly separated samples: p should be tiny for mean(a) > mean(b).
	a := []float64{30, 31, 29, 30.5, 30.2, 29.8, 30.1, 30.3}
	b := []float64{1, 1.2, 0.8, 1.1, 0.9, 1.05, 1.0, 0.95}
	p, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.02 {
		t.Fatalf("p = %v, want < 0.02 (significant at paper's level)", p)
	}
	// Reversed direction must NOT be significant.
	rev, err := WelchTTest(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if rev < 0.98 {
		t.Fatalf("reversed p = %v, want ~1", rev)
	}
}

func TestWelchTTestIdentical(t *testing.T) {
	a := []float64{5, 5, 5}
	p, err := WelchTTest(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0.5 {
		t.Fatalf("p for identical constant samples = %v, want 0.5", p)
	}
}

func TestWelchTTestErrors(t *testing.T) {
	if _, err := WelchTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("want error for n<2")
	}
}

func TestMeanCI(t *testing.T) {
	xs := []float64{10, 12, 9, 11, 10, 10.5, 9.5, 11.5}
	mean, hw := MeanCI(xs, 0.95)
	if !almostEq(mean, Mean(xs), 1e-12) {
		t.Fatalf("mean mismatch")
	}
	if hw <= 0 {
		t.Fatalf("half width = %v, want > 0", hw)
	}
	// CI must contain the mean trivially and shrink with confidence.
	_, hw90 := MeanCI(xs, 0.90)
	if hw90 >= hw {
		t.Fatalf("90%% CI (%v) should be narrower than 95%% (%v)", hw90, hw)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 2
	}
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 3, 1e-9) || !almostEq(fit.Intercept, 2, 1e-9) {
		t.Fatalf("fit = %+v, want slope 3 intercept 2", fit)
	}
	if !almostEq(fit.R2, 1, 1e-9) {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
	if got := fit.SolveFor(17); !almostEq(got, 5, 1e-9) {
		t.Fatalf("SolveFor(17) = %v, want 5", got)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("want error for n<2")
	}
	if _, err := LinearFit([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("want error for degenerate x")
	}
}

func TestLinearFitRecoveryProperty(t *testing.T) {
	// For any slope/intercept, fitting noiseless data recovers them.
	f := func(sRaw, iRaw uint16) bool {
		slope := float64(sRaw)/100 - 300
		intercept := float64(iRaw)/100 - 300
		xs := []float64{0, 1, 2, 3, 4, 5, 6}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = slope*x + intercept
		}
		fit, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		return almostEq(fit.Slope, slope, 1e-6) && almostEq(fit.Intercept, intercept, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds too similar: %d matches", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandIntnUniformish(t *testing.T) {
	r := NewRand(1)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if frac < 0.08 || frac > 0.12 {
			t.Fatalf("bucket %d has fraction %v, want ~0.1", i, frac)
		}
	}
}

func TestRandNormMoments(t *testing.T) {
	r := NewRand(99)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	if m := Mean(xs); math.Abs(m) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", m)
	}
	if v := Variance(xs); math.Abs(v-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", v)
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation")
		}
		seen[v] = true
	}
}

func TestWeightedChoice(t *testing.T) {
	r := NewRand(5)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight bucket chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestParetoTail(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(1.0, 1.2)
		if v < 1 {
			t.Fatalf("Pareto below minimum: %v", v)
		}
	}
}
