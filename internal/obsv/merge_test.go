package obsv

import (
	"reflect"
	"testing"
)

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(1, 8)
	b := NewHistogram(1, 8)
	for _, v := range []int{1, 2, 2, 9} { // 9 overflows 8 buckets
		a.Observe(v)
	}
	for _, v := range []int{0, 2, 12} {
		b.Observe(v)
	}
	whole := NewHistogram(1, 8)
	for _, v := range []int{1, 2, 2, 9, 0, 2, 12} {
		whole.Observe(v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, whole) {
		t.Fatalf("merged %+v != whole %+v", a, whole)
	}
	if err := a.Merge(NewHistogram(2, 8)); err == nil {
		t.Fatal("width mismatch accepted")
	}
}
