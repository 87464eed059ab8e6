package qtrace

import (
	"encoding/json"
	"os"
	"sync"
)

// QueryLog is the structured query log: one JSON object per kept trace,
// newline-delimited (JSONL), with dnstap-style fields — query identity,
// transport, verdict, upstream, and the per-phase timings. The file
// rotates by size: when the active file exceeds MaxBytes it is renamed to
// <path>.1 (replacing any previous rotation) and a fresh file is started,
// bounding the on-disk footprint at roughly twice MaxBytes.
type QueryLog struct {
	mu   sync.Mutex
	path string
	max  int64
	f    *os.File
	size int64
}

// DefaultQueryLogMaxBytes is the rotation threshold applied when
// OpenQueryLog is given a non-positive maxBytes (64 MiB).
const DefaultQueryLogMaxBytes = 64 << 20

// OpenQueryLog opens (appending) or creates the JSONL query log at path,
// rotating when it exceeds maxBytes (DefaultQueryLogMaxBytes if
// non-positive).
func OpenQueryLog(path string, maxBytes int64) (*QueryLog, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultQueryLogMaxBytes
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &QueryLog{path: path, max: maxBytes, f: f, size: st.Size()}, nil
}

// Write appends one trace as a JSONL line — the View that /debug/trace
// serves for it — rotating first if the active file is over the size
// threshold. Write allocates (JSON marshalling); it runs only for kept
// traces, never on the per-query fast path.
func (l *QueryLog) Write(r *Record) error {
	b, err := json.Marshal(viewOf(r))
	if err != nil {
		return err
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return os.ErrClosed
	}
	if l.size+int64(len(b)) > l.max {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := l.f.Write(b)
	l.size += int64(n)
	return err
}

// rotateLocked renames the active file to <path>.1 and starts a fresh one.
func (l *QueryLog) rotateLocked() error {
	l.f.Close()
	if err := os.Rename(l.path, l.path+".1"); err != nil && !os.IsNotExist(err) {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		l.f = nil
		return err
	}
	l.f = f
	l.size = 0
	return nil
}

// Close flushes and closes the active file. Further Writes fail.
func (l *QueryLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
