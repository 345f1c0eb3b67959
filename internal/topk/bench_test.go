package topk

import "testing"

// BenchmarkSelectorPushReject times the offer a scan makes nearly every
// time: a full selector and a candidate farther than its current worst.
func BenchmarkSelectorPushReject(b *testing.B) {
	s := New(10)
	for i := 0; i < 10; i++ {
		s.Push(i, float64(i))
	}
	kept := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Push(i, 100) {
			kept++
		}
	}
	if kept != 0 {
		b.Fatalf("%d far candidates admitted", kept)
	}
}
