package hpack

// The decoder as a connection uses it: one scratch, block after block.

import (
	"reflect"
	"testing"
)

// TestDecodeAppendWarmAllocFree pins the steady state of a persistent DoH
// connection: once the peer's encoder has indexed the request's fields, a
// block is all indexed representations, and decoding one into the
// connection's scratch allocates nothing.
func TestDecodeAppendWarmAllocFree(t *testing.T) {
	enc, dec := NewEncoder(), NewDecoder()
	fields := append(requestFields("/dns-query"), HeaderField{Name: "content-type", Value: "application/dns-message"})
	var block []byte
	var scratch []HeaderField
	for i := 0; i < 2; i++ { // the second block is the steady state
		block = enc.AppendEncode(block[:0], fields)
		var err error
		if scratch, err = dec.DecodeAppend(scratch[:0], block); err != nil {
			t.Fatal(err)
		}
	}
	if len(block) != len(fields) {
		t.Fatalf("warm block is %d bytes for %d fields: not all indexed", len(block), len(fields))
	}
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if scratch, err = dec.DecodeAppend(scratch[:0], block); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm DecodeAppend: %v allocs/op, want 0", allocs)
	}
	if !reflect.DeepEqual(scratch, fields) {
		t.Errorf("decoded %v, want %v", scratch, fields)
	}
}

// TestDecodeAppendKeepsPrefix: fields already in dst stay in front of the
// block's.
func TestDecodeAppendKeepsPrefix(t *testing.T) {
	kept := HeaderField{Name: "x-kept", Value: "1"}
	got, err := NewDecoder().DecodeAppend([]HeaderField{kept}, []byte{0x82}) // :method GET
	want := []HeaderField{kept, {Name: ":method", Value: "GET"}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, %v; want %v", got, err, want)
	}
}

// FuzzDecode: for any block, DecodeAppend into a dirty, reused dst gives what
// Decode gives into a fresh slice — fields, error and the table left behind
// — nothing panics, and the dynamic table stays within the bound its size
// updates are held to.
func FuzzDecode(f *testing.F) {
	warm := NewEncoder().AppendEncode(nil, append(requestFields("/dns-query"), HeaderField{Name: "x-long", Value: "a value long enough to matter to eviction"}))
	f.Add(warm)
	f.Add([]byte{0x82, 0x86, 0x84, 0xbe, 0xbf})                                     // static and dynamic indices
	f.Add([]byte{0x3f, 0xe1, 0x1f, 0x82})                                           // table size update to the bound, then a field
	f.Add([]byte{0x20, 0x40, 0x01, 'a', 0x01, 'b', 0xbe})                           // table emptied, refilled, read back
	f.Add([]byte{0x3f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // size update that overflows int
	f.Add([]byte{0x10, 0x83, 0xff, 0xff, 0xff})                                     // never-indexed, bad Huffman padding
	f.Add([]byte{0x00, 0x7f, 0xff, 0xff, 0xff, 0xff, 0x0f})                         // a name longer than the block

	f.Fuzz(func(t *testing.T, block []byte) {
		fresh, reused := NewDecoder(), NewDecoder()
		dst := make([]HeaderField, 0, 4)
		// The warm block first, so indices reach a populated dynamic table;
		// then the input twice, the second time against whatever table and
		// scratch the first left.
		for i, b := range [][]byte{warm, block, block} {
			want, wantErr := fresh.Decode(b)
			dst = dst[:cap(dst)]
			for j := range dst {
				dst[j] = HeaderField{Name: "stale", Value: "stale", Sensitive: true}
			}
			got, gotErr := reused.DecodeAppend(dst[:0], b)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("block %d: Decode error %v, DecodeAppend error %v", i, wantErr, gotErr)
			}
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("block %d: DecodeAppend %v, Decode %v", i, got, want)
			}
			if !reflect.DeepEqual(reused.table, fresh.table) {
				t.Fatalf("block %d: tables diverged: %+v and %+v", i, reused.table, fresh.table)
			}
			if tb := &fresh.table; tb.maxSize < 0 || tb.maxSize > DefaultMaxDynamicTableSize || tb.size < 0 || tb.size > tb.maxSize {
				t.Fatalf("block %d: table holds %d of %d bytes, bound %d", i, tb.size, tb.maxSize, DefaultMaxDynamicTableSize)
			}
			if gotErr != nil {
				return // the connection would be over
			}
			dst = got
		}
	})
}
