package stats

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMedianOdd(t *testing.T) {
	if got := Median([]int64{5, 1, 3}); got != 3 {
		t.Fatalf("Median = %v", got)
	}
}

func TestMedianEven(t *testing.T) {
	if got := Median([]int{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("Median = %v", got)
	}
}

func TestMedianSingle(t *testing.T) {
	if got := Median([]float64{7.5}); got != 7.5 {
		t.Fatalf("Median = %v", got)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []int{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestMedianPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Median([]int{})
}

func TestMedianInt(t *testing.T) {
	if got := MedianInt([]int{4, 1, 3, 2}); got != 2 {
		t.Fatalf("MedianInt = %v (lower median)", got)
	}
	if got := MedianInt([]int{9}); got != 9 {
		t.Fatalf("MedianInt = %v", got)
	}
}

func TestMeanMinMax(t *testing.T) {
	xs := []int64{2, 8, 5}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Mean([]int{}) != 0 {
		t.Fatal("Mean of empty must be 0")
	}
}

func TestPropertyMedianBetweenMinMax(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]int64, 1+rng.Intn(50))
		for i := range xs {
			xs[i] = rng.Int63n(1000)
		}
		m := Median(xs)
		return float64(slices.Min(xs)) <= m && m <= float64(slices.Max(xs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
