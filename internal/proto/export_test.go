package proto

import "testing"

// CheckAsleep turns the exactness check on until t ends: every host
// steps every machine at every tick, and report receives each step of a
// machine before its wake, with an empty inbox, that sent something or
// changed its wake, Done or Output. report must be safe for concurrent
// use: session groups run at once.
func CheckAsleep(t testing.TB, report func(error)) {
	asleepCheck = report
	t.Cleanup(func() { asleepCheck = nil })
}
