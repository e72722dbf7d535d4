package postree

// rolledDuring runs f and returns the bytes its edits pushed through
// the rolling hash (Resume tails included), as opposed to copied.
func rolledDuring(f func()) int {
	total := 0
	onRolled = func(n int) { total += n }
	defer func() { onRolled = nil }()
	f()
	return total
}
