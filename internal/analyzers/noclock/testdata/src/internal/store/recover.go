// Package store is a fixture for the store's file-scoped rule: the
// rebuild body in recover.go is replay-critical.
package store

import "time"

// Rebuild is on the replay path; the clock read is a violation.
func Rebuild() time.Duration {
	return time.Since(time.Time{}) // want `time\.Since in deterministic package store`
}
