package dnswire

import (
	"encoding/binary"
	"errors"
	"testing"
)

// scanFixture is respFixture's packed form with the query it answers.
func scanFixture(t *testing.T) (Query, []byte) {
	t.Helper()
	q, ok := ParseQuery(mustPack(t, NewQuery(0xBEEF, "www.example.com.", TypeA)))
	if !ok {
		t.Fatal("fixture query not fast-parseable")
	}
	return q, mustPack(t, respFixture())
}

func TestScanResponseReadsWhatUnpackReads(t *testing.T) {
	q, wire := scanFixture(t)
	scan, toffs, err := ScanResponse(wire, &q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two answers at 300 and 60 s, a third at 60, an SOA at 3600/MINIMUM 120.
	want := ResponseScan{RCode: RCodeSuccess, Answers: 3, MinTTL: 60, HasTTL: true, SOATTL: 120, HasSOA: true}
	if scan != want {
		t.Errorf("scan = %+v, want %+v", scan, want)
	}
	if scan.Negative() {
		t.Error("a positive answer scanned as negative")
	}
	offsets, err := TTLOffsets(wire)
	if err != nil {
		t.Fatal(err)
	}
	if string(toffs) != string(PackTTLOffsets(nil, offsets)) || len(offsets) != 4 {
		t.Errorf("offsets %x, TTLOffsets says %v", toffs, offsets)
	}
	// A different-case echo of the question is the same question.
	upper := append([]byte(nil), wire...)
	upper[13] ^= 0x20
	if _, _, err := ScanResponse(upper, &q, nil); err != nil {
		t.Errorf("question differing in ASCII case refused: %v", err)
	}
}

// TestScanResponseRefuses is the list of things an upstream must not be
// able to have stored or served verbatim. The pointer cases are what
// Unpack's backward-only rule lets through: a name borrowing bytes that a
// later in-place rewrite (ID, TTL) changes.
func TestScanResponseRefuses(t *testing.T) {
	q, good := scanFixture(t)
	// The first answer's owner name is the pointer right after the question.
	owner := headerLen + len("\x03www\x07example\x03com\x00") + 4
	if good[owner] != 0xC0 || good[owner+1] != headerLen {
		t.Fatalf("fixture layout changed: owner name %x", good[owner:owner+2])
	}
	for _, tc := range []struct {
		name  string
		forge func(b []byte) []byte
		want  error
	}{
		{"a-query", func(b []byte) []byte { b[2] &^= 0x80; return b }, ErrNotAResponse},
		{"no-question", func(b []byte) []byte { binary.BigEndian.PutUint16(b[4:], 0); return b }, ErrQuestionMismatch},
		{"two-questions", func(b []byte) []byte { binary.BigEndian.PutUint16(b[4:], 2); return b }, ErrQuestionMismatch},
		{"other-name", func(b []byte) []byte { b[14] = 'x'; return b }, ErrQuestionMismatch},
		{"other-type", func(b []byte) []byte { b[owner-3] = byte(TypeAAAA); return b }, ErrQuestionMismatch},
		{"compressed-question", func(b []byte) []byte { b[headerLen] = 0xC0; return b }, ErrQuestionMismatch},
		{"forward-pointer", func(b []byte) []byte { b[owner+1] = byte(owner + 20); return b }, ErrCompressionLoop},
		{"pointer-at-itself", func(b []byte) []byte { b[owner+1] = byte(owner); return b }, ErrCompressionLoop},
		{"pointer-into-header", func(b []byte) []byte { b[owner+1] = 0; return b }, ErrCompressionLoop},
		{"pointer-mid-label", func(b []byte) []byte { b[owner+1] = headerLen + 2; return b }, ErrCompressionLoop},
		{"pointer-into-ttl", func(b []byte) []byte {
			// The second answer's owner aimed at the first answer's TTL field.
			second := owner + 2 + 10 + len("\x03cdn\xc0\x10")
			b[second], b[second+1] = 0xC0, byte(owner+2+4)
			return b
		}, ErrCompressionLoop},
		{"rdlength-past-end", func(b []byte) []byte { b[owner+11] = 0xFF; return b }, ErrRDataOutOfBounds},
		{"short-a-record", func(b []byte) []byte { return b[:len(b)-1] }, nil},
		{"trailing-bytes", func(b []byte) []byte { return append(b, 0) }, ErrTrailingGarbage},
		{"header-only", func(b []byte) []byte { return b[:headerLen-1] }, ErrShortMessage},
	} {
		forged := tc.forge(append([]byte(nil), good...))
		_, _, err := ScanResponse(forged, &q, nil)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestValidateResponseWire(t *testing.T) {
	q, good := scanFixture(t)
	if err := ValidateResponseWire(q.Raw, 0xBEEF, good); err != nil {
		t.Fatal(err)
	}
	if err := ValidateResponseWire(q.Raw, 0xBEEE, good); !errors.Is(err, ErrIDMismatch) {
		t.Errorf("wrong ID: err = %v", err)
	}
	if err := ValidateResponseWire(q.Raw, 0xBEEF, q.Raw); !errors.Is(err, ErrNotAResponse) {
		t.Errorf("a query echoed back: err = %v", err)
	}
	other := append([]byte(nil), good...)
	other[14] = 'x'
	if err := ValidateResponseWire(q.Raw, 0xBEEF, other); !errors.Is(err, ErrQuestionMismatch) {
		t.Errorf("wrong question: err = %v", err)
	}
	// Like ValidateResponse, a response echoing no question passes here;
	// the strict scan is what refuses to store it.
	bare := append([]byte(nil), good[:headerLen]...)
	for i := 4; i < headerLen; i++ {
		bare[i] = 0
	}
	if err := ValidateResponseWire(q.Raw, 0xBEEF, bare); err != nil {
		t.Errorf("question-less response: %v", err)
	}
	if err := ValidateResponseWire(q.Raw, 0xBEEF, good[:5]); !errors.Is(err, ErrShortMessage) {
		t.Errorf("five bytes: err = %v", err)
	}
}

// TestScanAndReadNameAllocs pins the two allocation contracts of the miss
// path's codec work: the scan allocates nothing when the caller brings
// room for the offsets, and decoding a name costs exactly one allocation —
// the string — however many labels and pointers it crosses.
func TestScanAndReadNameAllocs(t *testing.T) {
	q, wire := scanFixture(t)
	var toffs [64]byte
	if got := testing.AllocsPerRun(100, func() {
		if _, _, err := ScanResponse(wire, &q, toffs[:0]); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("ScanResponse allocates %.1f times, want 0", got)
	}
	// The CNAME target: "cdn" + a pointer into the question name.
	target := headerLen + len("\x03www\x07example\x03com\x00") + 4 + 2 + 10
	var name Name
	if got := testing.AllocsPerRun(100, func() {
		var err error
		if name, _, err = readName(wire, target); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("readName allocates %.1f times, want 1", got)
	}
	if name != "cdn.example.com." {
		t.Errorf("readName = %q", name)
	}
}
