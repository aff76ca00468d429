// Package reuse holds the one resize rule the long-lived working storage of
// the passes and the simulator is built on: handing back a buffer of the
// requested length in the storage a previous call left behind whenever it is
// large enough.
package reuse

// Reslice returns s with length n, reusing s's storage when its capacity is
// at least n. A reused buffer keeps its old contents; a new one is zero.
func Reslice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Zeroed returns s with length n and every element zero, reusing s's
// storage when its capacity is at least n.
func Zeroed[T any](s []T, n int) []T {
	s = Reslice(s, n)
	clear(s)
	return s
}
