package hpack

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// RFC 7541 Appendix C.4.1: "www.example.com" Huffman-encodes to these bytes.
func TestHuffmanGoldenRFC(t *testing.T) {
	got := AppendHuffmanEncode(nil, "www.example.com")
	want := []byte{0xf1, 0xe3, 0xc2, 0xe5, 0xf2, 0x3a, 0x6b, 0xa0, 0xab, 0x90, 0xf4, 0xff}
	if !bytes.Equal(got, want) {
		t.Errorf("huffman(www.example.com):\n got %x\nwant %x", got, want)
	}
	if HuffmanEncodeLength("www.example.com") != len(want) {
		t.Error("HuffmanEncodeLength mismatch")
	}
}

// RFC 7541 Appendix C.4.2: "no-cache" → a8eb 1064 9cbf.
func TestHuffmanGoldenNoCache(t *testing.T) {
	got := AppendHuffmanEncode(nil, "no-cache")
	want := []byte{0xa8, 0xeb, 0x10, 0x64, 0x9c, 0xbf}
	if !bytes.Equal(got, want) {
		t.Errorf("huffman(no-cache):\n got %x\nwant %x", got, want)
	}
}

func TestHuffmanRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		enc := AppendHuffmanEncode(nil, s)
		dec, err := HuffmanDecode(enc)
		return err == nil && dec == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHuffmanDecodeRejectsBadPadding(t *testing.T) {
	// '0' encodes as 00000 (5 bits); pad with zeros instead of ones.
	bad := []byte{0x00} // 00000 000 — padding bits are zeros
	if _, err := HuffmanDecode(bad); !errors.Is(err, ErrHuffmanPadding) {
		t.Errorf("zero padding: err = %v", err)
	}
	// 8+ bits of EOS prefix (a full 0xFF byte after a symbol-free start) is
	// over-long padding.
	if _, err := HuffmanDecode([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Error("30-bit EOS accepted")
	}
}

func TestIntegerGoldenRFC(t *testing.T) {
	// C.1.1: encode 10 with 5-bit prefix → 0x0a.
	if got := appendInteger(nil, 0, 5, 10); !bytes.Equal(got, []byte{0x0a}) {
		t.Errorf("encode 10/5 = %x", got)
	}
	// C.1.2: 1337 with 5-bit prefix → 1f 9a 0a.
	if got := appendInteger(nil, 0, 5, 1337); !bytes.Equal(got, []byte{0x1f, 0x9a, 0x0a}) {
		t.Errorf("encode 1337/5 = %x", got)
	}
	// C.1.3: 42 with 8-bit prefix → 2a.
	if got := appendInteger(nil, 0, 8, 42); !bytes.Equal(got, []byte{0x2a}) {
		t.Errorf("encode 42/8 = %x", got)
	}
	v, rest, err := readInteger([]byte{0x1f, 0x9a, 0x0a}, 5)
	if err != nil || v != 1337 || len(rest) != 0 {
		t.Errorf("decode 1337: %d %v %v", v, rest, err)
	}
}

func TestIntegerRoundTripProperty(t *testing.T) {
	f := func(v uint32, prefix uint8) bool {
		p := uint(prefix%8) + 1
		enc := appendInteger(nil, 0, p, uint64(v))
		got, rest, err := readInteger(enc, p)
		return err == nil && got == uint64(v) && len(rest) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntegerDecodeErrors(t *testing.T) {
	if _, _, err := readInteger(nil, 5); !errors.Is(err, ErrTruncated) {
		t.Error("empty input")
	}
	if _, _, err := readInteger([]byte{0x1f, 0x80}, 5); !errors.Is(err, ErrTruncated) {
		t.Error("unterminated continuation")
	}
	over := []byte{0x1f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := readInteger(over, 5); !errors.Is(err, ErrIntegerOverflow) {
		t.Error("overflow not detected")
	}
}

// RFC 7541 C.2.1: literal with indexing, custom-key: custom-header.
func TestLiteralWithIndexingGolden(t *testing.T) {
	e := NewEncoder()
	e.DisableHuffman = true
	got := e.AppendEncode(nil, []HeaderField{{Name: "custom-key", Value: "custom-header"}})
	want := append([]byte{0x40, 0x0a}, "custom-key"...)
	want = append(want, 0x0d)
	want = append(want, "custom-header"...)
	if !bytes.Equal(got, want) {
		t.Errorf("encoding:\n got %x\nwant %x", got, want)
	}
	d := NewDecoder()
	fields, err := d.Decode(got)
	if err != nil || len(fields) != 1 || fields[0].Name != "custom-key" || fields[0].Value != "custom-header" {
		t.Errorf("decode = %v, %v", fields, err)
	}
	// The entry is now in the decoder's dynamic table at index 62.
	f, ok := d.table.at(62)
	if !ok || f.Name != "custom-key" {
		t.Errorf("dynamic table entry = %v %v", f, ok)
	}
}

// RFC 7541 C.2.4: fully indexed :method GET is the single byte 0x82.
func TestIndexedStaticGolden(t *testing.T) {
	e := NewEncoder()
	got := e.AppendEncode(nil, []HeaderField{{Name: ":method", Value: "GET"}})
	if !bytes.Equal(got, []byte{0x82}) {
		t.Errorf("encoding = %x, want 82", got)
	}
}

func requestFields(path string) []HeaderField {
	return []HeaderField{
		{Name: ":method", Value: "POST"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "cloudflare-dns.com"},
		{Name: ":path", Value: path},
		{Name: "content-type", Value: "application/dns-message"},
		{Name: "accept", Value: "application/dns-message"},
		{Name: "content-length", Value: "33"},
	}
}

func TestDifferentialHeadersShrink(t *testing.T) {
	e := NewEncoder()
	first := len(e.AppendEncode(nil, requestFields("/dns-query")))
	second := len(e.AppendEncode(nil, requestFields("/dns-query")))
	if second >= first {
		t.Errorf("second request (%dB) not smaller than first (%dB)", second, first)
	}
	// Everything indexable is indexed: the repeat encoding should be tiny
	// (one byte per field).
	if second > len(requestFields(""))+3 {
		t.Errorf("differential encoding = %dB, want near-minimal", second)
	}
}

func TestDisableDynamicAblation(t *testing.T) {
	e := NewEncoder()
	e.DisableDynamic = true
	first := len(e.AppendEncode(nil, requestFields("/dns-query")))
	second := len(e.AppendEncode(nil, requestFields("/dns-query")))
	if first != second {
		t.Errorf("static-only encoder not stateless: %d then %d", first, second)
	}
	// And both decode correctly without dynamic entries.
	d := NewDecoder()
	enc := e.AppendEncode(nil, requestFields("/dns-query"))
	fields, err := d.Decode(enc)
	if err != nil || len(fields) != 7 {
		t.Fatalf("decode = %v, %v", fields, err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := NewEncoder()
	d := NewDecoder()
	// Three requests over one connection, mixed with a response block.
	blocks := [][]HeaderField{
		requestFields("/dns-query"),
		requestFields("/dns-query"),
		{{Name: ":status", Value: "200"}, {Name: "content-type", Value: "application/dns-message"}},
		requestFields("/other-path"),
	}
	for i, fields := range blocks {
		enc := e.AppendEncode(nil, fields)
		got, err := d.Decode(enc)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, fields) {
			t.Errorf("block %d:\n got %v\nwant %v", i, got, fields)
		}
	}
}

func TestSensitiveNeverIndexed(t *testing.T) {
	e := NewEncoder()
	f := HeaderField{Name: "authorization", Value: "secret-token", Sensitive: true}
	enc := e.AppendEncode(nil, []HeaderField{f})
	if enc[0]&0xF0 != 0x10 {
		t.Errorf("first byte %#x, want never-indexed prefix 0001", enc[0])
	}
	// Encoding again must not have learned the value.
	enc2 := e.AppendEncode(nil, []HeaderField{f})
	if len(enc2) != len(enc) {
		t.Error("sensitive value was indexed")
	}
	d := NewDecoder()
	got, err := d.Decode(enc)
	if err != nil || !got[0].Sensitive || got[0].Value != "secret-token" {
		t.Errorf("decode = %+v, %v", got, err)
	}
}

func TestTableSizeUpdate(t *testing.T) {
	e := NewEncoder()
	d := NewDecoder()
	// Warm the tables.
	blk := e.AppendEncode(nil, requestFields("/dns-query"))
	if _, err := d.Decode(blk); err != nil {
		t.Fatal(err)
	}
	// Shrinking to zero evicts everything and emits an update.
	e.SetMaxDynamicTableSize(0)
	blk = e.AppendEncode(nil, []HeaderField{{Name: ":method", Value: "GET"}})
	if blk[0]&0xE0 != 0x20 {
		t.Errorf("first byte %#x, want size-update prefix 001", blk[0])
	}
	if _, err := d.Decode(blk); err != nil {
		t.Fatal(err)
	}
	if d.table.n != 0 {
		t.Error("decoder table not flushed")
	}
	// An update above the allowed bound is a protocol error.
	d2 := NewDecoder()
	e2 := NewEncoder()
	e2.SetMaxDynamicTableSize(DefaultMaxDynamicTableSize + 1)
	blk2 := e2.AppendEncode(nil, nil)
	if _, err := d2.Decode(blk2); !errors.Is(err, ErrTableSizeBound) {
		t.Errorf("oversize update: err = %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	d := NewDecoder()
	if _, err := d.Decode([]byte{0xFF, 0xEA, 0x7F}); !errors.Is(err, ErrInvalidIndex) {
		t.Errorf("huge index: %v", err)
	}
	if _, err := d.Decode([]byte{0x40, 0x0a, 'x'}); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated literal: %v", err)
	}
	if _, err := d.Decode([]byte{0x80}); err == nil {
		t.Error("index 0 accepted")
	}
}

func TestDecodeNeverPanicsProperty(t *testing.T) {
	d := NewDecoder()
	f := func(data []byte) bool {
		_, _ = d.Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestEvictionBoundsTable(t *testing.T) {
	e := NewEncoder()
	d := NewDecoder()
	// Insert far more than 4096 bytes of distinct entries.
	for i := 0; i < 300; i++ {
		f := []HeaderField{{Name: "x-header-" + strings.Repeat("a", i%40), Value: strings.Repeat("v", 30)}}
		blk := e.AppendEncode(nil, f)
		if _, err := d.Decode(blk); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	if e.table.size > e.table.maxSize || d.table.size > d.table.maxSize {
		t.Errorf("table exceeded bound: enc=%d dec=%d", e.table.size, d.table.size)
	}
}

func TestStaticTableLookups(t *testing.T) {
	var tbl dynamicTable
	f, ok := tbl.at(2)
	if !ok || f.Name != ":method" || f.Value != "GET" {
		t.Errorf("static[2] = %v", f)
	}
	if _, ok := tbl.at(62); ok {
		t.Error("empty dynamic table had an entry")
	}
	if _, ok := tbl.at(0); ok {
		t.Error("index 0 resolved")
	}
	idx, full := tbl.lookup(HeaderField{Name: "content-type", Value: "nope"})
	if full || idx != 31 {
		t.Errorf("name-only lookup = %d %v", idx, full)
	}
}

// TestDistinctPathsAllocs pins a warm connection's GETs, each with a :path
// of its own — a DoH GET client's traffic, every query a literal the table
// indexes and a long-gone one evicts: the encoder allocates nothing, and the
// decoder only the decoded path's string. (Inserting into the table used to
// copy all of it, on both sides, once per request.)
func TestDistinctPathsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	e, d := NewEncoder(), NewDecoder()
	fields := []HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "dns.example"},
		{Name: ":path"},
		{Name: "accept", Value: "application/dns-message"},
	}
	paths := make([]string, 1000)
	for i := range paths {
		paths[i] = fmt.Sprintf("/dns-query?dns=q80BAAABAAAAAAAAA3d3dwdleGFtcGxl%04dAAABAAE", i)
	}
	const runs = 100
	blocks := make([][]byte, len(paths))
	for i := range blocks {
		blocks[i] = make([]byte, 0, 256)
	}
	scratch := make([]HeaderField, 0, len(fields))
	enc, dec := 0, 0
	encode := func() {
		fields[3].Value = paths[enc]
		blocks[enc] = e.AppendEncode(blocks[enc][:0], fields)
		enc++
	}
	decode := func() {
		got, err := d.DecodeAppend(scratch[:0], blocks[dec])
		if err != nil || len(got) != len(fields) || got[3].Value != paths[dec] {
			t.Fatalf("block %d: %v, %v", dec, got, err)
		}
		dec++
	}
	for enc < len(paths)-runs-1 { // warm: the tables fill, then evict
		encode()
		decode()
	}
	if got := testing.AllocsPerRun(runs, encode); got != 0 {
		t.Errorf("encoding a GET with a new path allocates %.1f times on a warm connection, want none", got)
	}
	if got := testing.AllocsPerRun(runs, decode); got != 1 {
		t.Errorf("decoding a GET with a new path allocates %.1f times on a warm connection, want the path's string alone", got)
	}
	if e.table.n == 0 || e.table.n != d.table.n || e.table.size != d.table.size || e.table.size > e.table.maxSize {
		t.Errorf("tables diverged: encoder %d entries / %d octets, decoder %d / %d", e.table.n, e.table.size, d.table.n, d.table.size)
	}
}
