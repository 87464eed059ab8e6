package dnscache

import "fmt"

// Admission names a cache admission policy for configuration surfaces
// (proxy.Config.CacheAdmission, the -cache-admission flag); the cache
// itself is configured with options (WithTinyLFU).
type Admission uint8

// The admission policies.
const (
	// AdmissionAuto is the zero value: TinyLFU when the cache is bounded by
	// a memory budget — the combination built for heavy-tailed name
	// streams — and plain LRU under an entry-count bound.
	AdmissionAuto Admission = iota
	// AdmissionLRU admits every insert and evicts least-recently-used.
	AdmissionLRU
	// AdmissionTinyLFU gates inserts on estimated frequency (WithTinyLFU).
	AdmissionTinyLFU
)

// Valid reports whether a is one of the declared policies.
func (a Admission) Valid() bool { return a <= AdmissionTinyLFU }

// String returns the policy's configuration name; AdmissionAuto is "".
func (a Admission) String() string {
	switch a {
	case AdmissionAuto:
		return ""
	case AdmissionLRU:
		return "lru"
	case AdmissionTinyLFU:
		return "tinylfu"
	}
	return fmt.Sprintf("admission(%d)", uint8(a))
}

// MarshalText implements encoding.TextMarshaler, so flags print and JSON
// echoes the policy by name.
func (a Admission) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler: "lru", "tinylfu", or
// empty for AdmissionAuto. Anything else is an error, which is how
// flag.TextVar rejects a misspelt -cache-admission at parse time.
func (a *Admission) UnmarshalText(text []byte) error {
	switch string(text) {
	case "":
		*a = AdmissionAuto
	case "lru":
		*a = AdmissionLRU
	case "tinylfu":
		*a = AdmissionTinyLFU
	default:
		return fmt.Errorf("dnscache: unknown admission policy %q (want lru or tinylfu)", text)
	}
	return nil
}
