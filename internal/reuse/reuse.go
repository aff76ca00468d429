// Package reuse holds the one helper the passes' long-lived working storage
// is built on: handing back a buffer of the requested length, zeroed, in the
// storage a previous call left behind whenever it is large enough.
package reuse

// Zeroed returns s with length n and every element zero, reusing s's
// storage when its capacity is at least n.
func Zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
