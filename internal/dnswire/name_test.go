package dnswire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestNameCanonical(t *testing.T) {
	tests := []struct {
		in   Name
		want Name
	}{
		{"", "."},
		{".", "."},
		{"example.com", "example.com."},
		{"example.com.", "example.com."},
		{"WWW.Example.COM", "www.example.com."},
	}
	for _, tt := range tests {
		if got := tt.in.Canonical(); got != tt.want {
			t.Errorf("Canonical(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestNameIsSubdomainOf(t *testing.T) {
	tests := []struct {
		name, zone Name
		want       bool
	}{
		{"www.example.com.", "example.com.", true},
		{"example.com.", "example.com.", true},
		{"example.com.", "www.example.com.", false},
		{"badexample.com.", "example.com.", false},
		{"anything.at.all.", ".", true},
		{"WWW.EXAMPLE.COM", "example.com.", true},
	}
	for _, tt := range tests {
		if got := tt.name.IsSubdomainOf(tt.zone); got != tt.want {
			t.Errorf("IsSubdomainOf(%q, %q) = %v, want %v", tt.name, tt.zone, got, tt.want)
		}
	}
}

func TestAppendNameRoot(t *testing.T) {
	got, err := appendName(nil, Root, compressionMap{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0}) {
		t.Errorf("root wire = %x, want 00", got)
	}
}

func TestAppendNameUncompressed(t *testing.T) {
	got, err := appendName(nil, "www.example.com.", compressionMap{})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("\x03www\x07example\x03com\x00")
	if !bytes.Equal(got, want) {
		t.Errorf("wire = %q, want %q", got, want)
	}
}

func TestAppendNameLowercasesOnWire(t *testing.T) {
	got, err := appendName(nil, "WWW.Example.Com", compressionMap{})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("\x03www\x07example\x03com\x00")
	if !bytes.Equal(got, want) {
		t.Errorf("wire = %q, want %q", got, want)
	}
}

func TestAppendNameCompression(t *testing.T) {
	cmap := compressionMap{offsets: make(map[string]int)}
	msg, err := appendName(nil, "www.example.com.", cmap)
	if err != nil {
		t.Fatal(err)
	}
	first := len(msg)
	msg, err = appendName(msg, "mail.example.com.", cmap)
	if err != nil {
		t.Fatal(err)
	}
	// The second name shares the "example.com." suffix at offset 4, so it
	// should be "mail" + pointer: 04 mail C0 04.
	wantSecond := []byte("\x04mail\xC0\x04")
	if !bytes.Equal(msg[first:], wantSecond) {
		t.Errorf("compressed tail = %x, want %x", msg[first:], wantSecond)
	}
	// A third, identical name should be a bare pointer to offset 0.
	third := len(msg)
	msg, err = appendName(msg, "www.example.com.", cmap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg[third:], []byte{0xC0, 0x00}) {
		t.Errorf("repeat name = %x, want C0 00", msg[third:])
	}
}

func TestReadNameCompressed(t *testing.T) {
	cmap := compressionMap{offsets: make(map[string]int)}
	msg, _ := appendName(nil, "www.example.com.", cmap)
	mid := len(msg)
	msg, _ = appendName(msg, "mail.example.com.", cmap)

	name, next, err := readName(msg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if name != "www.example.com." || next != mid {
		t.Errorf("readName(0) = %q next=%d, want www.example.com. next=%d", name, next, mid)
	}
	name, next, err = readName(msg, mid)
	if err != nil {
		t.Fatal(err)
	}
	if name != "mail.example.com." || next != len(msg) {
		t.Errorf("readName(mid) = %q next=%d, want mail.example.com. next=%d", name, next, len(msg))
	}
}

func TestReadNameRejectsForwardPointer(t *testing.T) {
	// Pointer at offset 0 pointing to offset 2 (forward) must be rejected.
	msg := []byte{0xC0, 0x02, 0x01, 'a', 0x00}
	if _, _, err := readName(msg, 0); !errors.Is(err, ErrCompressionLoop) {
		t.Errorf("forward pointer: err = %v, want ErrCompressionLoop", err)
	}
}

func TestReadNameRejectsSelfPointer(t *testing.T) {
	msg := []byte{0x01, 'a', 0xC0, 0x02}
	if _, _, err := readName(msg, 2); !errors.Is(err, ErrCompressionLoop) {
		t.Errorf("self pointer: err = %v, want ErrCompressionLoop", err)
	}
}

func TestReadNameTruncated(t *testing.T) {
	cases := [][]byte{
		{},                 // empty
		{0x05, 'a', 'b'},   // label runs past end
		{0xC0},             // pointer missing second octet
		{0x01, 'a'},        // missing terminator
		{0x40, 0x01, 0x00}, // reserved label type
	}
	for i, msg := range cases {
		if _, _, err := readName(msg, 0); err == nil {
			t.Errorf("case %d (%x): expected error", i, msg)
		}
	}
}

func TestReadNameTooLong(t *testing.T) {
	// Chain of 9 x 31-byte labels = 288 wire octets > 255.
	var msg []byte
	for i := 0; i < 9; i++ {
		msg = append(msg, 31)
		msg = append(msg, bytes.Repeat([]byte{'a'}, 31)...)
	}
	msg = append(msg, 0)
	if _, _, err := readName(msg, 0); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("err = %v, want ErrNameTooLong", err)
	}
}

func TestNameValidate(t *testing.T) {
	long := strings.Repeat("a", 64)
	if err := Name(long + ".com.").validate(); !errors.Is(err, ErrLabelTooLong) {
		t.Errorf("63+ label: err = %v, want ErrLabelTooLong", err)
	}
	if err := Name("a..b.com.").validate(); !errors.Is(err, ErrEmptyLabel) {
		t.Errorf("empty label: err = %v, want ErrEmptyLabel", err)
	}
	var parts []string
	for i := 0; i < 10; i++ {
		parts = append(parts, strings.Repeat("x", 30))
	}
	if err := Name(strings.Join(parts, ".") + ".").validate(); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("300-octet name: err = %v, want ErrNameTooLong", err)
	}
	if err := Name("www.example.com.").validate(); err != nil {
		t.Errorf("valid name: err = %v", err)
	}
}

// genName builds an arbitrary valid name from quick-generated label sizes.
func genName(seed int64) Name {
	labels := []string{"a", "bb", "ccc", "dddd", "eeeee", "example", "com", "net", "io"}
	u := uint64(seed)
	n := int(u%4) + 1
	var parts []string
	for i := 0; i < n; i++ {
		parts = append(parts, labels[(u+uint64(i)*7)%uint64(len(labels))])
		u = u*6364136223846793005 + 1442695040888963407
	}
	return Name(strings.Join(parts, ".") + ".")
}

func TestNameRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		name := genName(seed)
		wire, err := appendName(nil, name, compressionMap{})
		if err != nil {
			return false
		}
		got, next, err := readName(wire, 0)
		return err == nil && got == name.Canonical() && next == len(wire)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReadNameNeverPanicsProperty(t *testing.T) {
	// Arbitrary bytes must produce either a name or an error, never a panic
	// or out-of-range read. validate() is only meaningful for ASCII names:
	// it lower-cases via UTF-8, which inflates arbitrary high bytes into
	// replacement runes and can push a legal 63-octet wire label over the
	// canonical-form limit.
	ascii := func(n Name) bool {
		for i := 0; i < len(n); i++ {
			if n[i] >= 0x80 {
				return false
			}
		}
		return true
	}
	f := func(data []byte, off uint8) bool {
		o := int(off)
		if len(data) > 0 {
			o %= len(data)
		} else {
			o = 0
		}
		name, next, err := readName(data, o)
		if err != nil {
			return true
		}
		if next > len(data) {
			return false
		}
		return !ascii(name) || name.validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNameWireLen(t *testing.T) {
	for _, n := range []Name{".", "com.", "www.example.com."} {
		wire, err := appendName(nil, n, compressionMap{})
		if err != nil {
			t.Fatal(err)
		}
		if got := nameWireLen(n); got != len(wire) {
			t.Errorf("nameWireLen(%q) = %d, want %d", n, got, len(wire))
		}
	}
}
