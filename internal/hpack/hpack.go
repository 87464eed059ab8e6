// Package hpack implements HPACK header compression (RFC 7541) for this
// repository's HTTP/2 stack: static and dynamic tables, Huffman string
// coding, and the integer primitives. The paper's Figure 5 shows how
// HTTP/2's differential header transmission — subsequent requests index
// fields the dynamic table already holds — shrinks the per-request "Hdr"
// layer on persistent DoH connections; the Encoder here is what produces
// that effect, and its dynamic table can be disabled for the ablation bench.
package hpack

import (
	"errors"
	"fmt"
)

// DefaultMaxDynamicTableSize is the SETTINGS_HEADER_TABLE_SIZE default.
const DefaultMaxDynamicTableSize = 4096

// Encoder compresses header lists. Not safe for concurrent use; HTTP/2
// serializes HEADERS frames per connection, which provides the ordering
// HPACK requires.
type Encoder struct {
	table dynamicTable
	// DisableHuffman turns off string compression (literals go raw).
	DisableHuffman bool
	// DisableDynamic stops the encoder from inserting entries into the
	// dynamic table, so every request is encoded from scratch — the
	// "no differential headers" ablation.
	DisableDynamic bool

	pendingSizeUpdate bool
	newMaxSize        int
}

// NewEncoder returns an encoder with the default table size.
func NewEncoder() *Encoder {
	e := &Encoder{}
	e.table.setMaxSize(DefaultMaxDynamicTableSize)
	return e
}

// SetMaxDynamicTableSize schedules a table-size update, emitted at the start
// of the next header block as the protocol requires.
func (e *Encoder) SetMaxDynamicTableSize(n int) {
	e.pendingSizeUpdate = true
	e.newMaxSize = n
}

// AppendEncode appends the HPACK encoding of fields to dst.
func (e *Encoder) AppendEncode(dst []byte, fields []HeaderField) []byte {
	if e.pendingSizeUpdate {
		e.pendingSizeUpdate = false
		e.table.setMaxSize(e.newMaxSize)
		dst = appendInteger(dst, 0x20, 5, uint64(e.newMaxSize))
	}
	for _, f := range fields {
		dst = e.appendField(dst, f)
	}
	return dst
}

func (e *Encoder) appendField(dst []byte, f HeaderField) []byte {
	if f.Sensitive {
		// Never-indexed literal (prefix 0001).
		idx, _ := e.table.lookup(HeaderField{Name: f.Name})
		dst = appendInteger(dst, 0x10, 4, uint64(idx))
		if idx == 0 {
			dst = e.appendString(dst, f.Name)
		}
		return e.appendString(dst, f.Value)
	}
	idx, full := e.table.lookup(f)
	if full {
		// Indexed representation (prefix 1).
		return appendInteger(dst, 0x80, 7, uint64(idx))
	}
	if e.DisableDynamic {
		// Literal without indexing (prefix 0000).
		dst = appendInteger(dst, 0x00, 4, uint64(idx))
		if idx == 0 {
			dst = e.appendString(dst, f.Name)
		}
		return e.appendString(dst, f.Value)
	}
	// Literal with incremental indexing (prefix 01).
	dst = appendInteger(dst, 0x40, 6, uint64(idx))
	if idx == 0 {
		dst = e.appendString(dst, f.Name)
	}
	dst = e.appendString(dst, f.Value)
	e.table.add(f)
	return dst
}

// appendString emits a length-prefixed string, Huffman-coded when that is
// strictly smaller (matching common implementations).
func (e *Encoder) appendString(dst []byte, s string) []byte {
	if !e.DisableHuffman {
		if hl := HuffmanEncodeLength(s); hl < len(s) {
			dst = appendInteger(dst, 0x80, 7, uint64(hl))
			return AppendHuffmanEncode(dst, s)
		}
	}
	dst = appendInteger(dst, 0x00, 7, uint64(len(s)))
	return append(dst, s...)
}

// appendInteger emits the RFC 7541 §5.1 prefixed integer: pattern carries
// the representation bits above an n-bit prefix.
func appendInteger(dst []byte, pattern byte, prefixBits uint, v uint64) []byte {
	maxPrefix := uint64(1)<<prefixBits - 1
	if v < maxPrefix {
		return append(dst, pattern|byte(v))
	}
	dst = append(dst, pattern|byte(maxPrefix))
	v -= maxPrefix
	for v >= 128 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// Decoding errors.
var (
	ErrInvalidIndex    = errors.New("hpack: invalid table index")
	ErrIntegerOverflow = errors.New("hpack: integer overflow")
	ErrTruncated       = errors.New("hpack: truncated header block")
	ErrTableSizeBound  = errors.New("hpack: table size update above bound")
)

// Decoder decompresses header blocks. Not safe for concurrent use.
type Decoder struct {
	table dynamicTable
}

// NewDecoder returns a decoder with the default table size.
func NewDecoder() *Decoder {
	d := &Decoder{}
	d.table.setMaxSize(DefaultMaxDynamicTableSize)
	return d
}

// Decode parses one complete header block into a slice of its own.
func (d *Decoder) Decode(data []byte) ([]HeaderField, error) {
	return d.DecodeAppend(nil, data)
}

// DecodeAppend parses one complete header block, appending its fields to dst
// — a connection's scratch, typically. An indexed field shares the table's
// strings, so on a warm connection, where every field is indexed, decoding
// allocates nothing. On error the fields are nil, and the table may hold
// part of the block: the connection it belongs to is over.
func (d *Decoder) DecodeAppend(dst []HeaderField, data []byte) ([]HeaderField, error) {
	for len(data) > 0 {
		b := data[0]
		switch {
		case b&0x80 != 0: // indexed
			idx, rest, err := readInteger(data, 7)
			if err != nil {
				return nil, err
			}
			data = rest
			f, ok := d.table.at(int(idx))
			if !ok {
				return nil, fmt.Errorf("%w: %d", ErrInvalidIndex, idx)
			}
			dst = append(dst, f)
		case b&0xC0 == 0x40: // literal with incremental indexing
			f, rest, err := d.readLiteral(data, 6)
			if err != nil {
				return nil, err
			}
			data = rest
			d.table.add(f)
			dst = append(dst, f)
		case b&0xE0 == 0x20: // dynamic table size update
			size, rest, err := readInteger(data, 5)
			if err != nil {
				return nil, err
			}
			// Our SETTINGS_HEADER_TABLE_SIZE is the default, so the
			// peer's encoder may not grow its table past it.
			if size > DefaultMaxDynamicTableSize {
				return nil, ErrTableSizeBound
			}
			d.table.setMaxSize(int(size))
			data = rest
		case b&0xF0 == 0x10: // never-indexed literal
			f, rest, err := d.readLiteral(data, 4)
			if err != nil {
				return nil, err
			}
			f.Sensitive = true
			data = rest
			dst = append(dst, f)
		default: // 0000: literal without indexing
			f, rest, err := d.readLiteral(data, 4)
			if err != nil {
				return nil, err
			}
			data = rest
			dst = append(dst, f)
		}
	}
	return dst, nil
}

func (d *Decoder) readLiteral(data []byte, prefixBits uint) (HeaderField, []byte, error) {
	idx, rest, err := readInteger(data, prefixBits)
	if err != nil {
		return HeaderField{}, nil, err
	}
	data = rest
	var f HeaderField
	if idx > 0 {
		e, ok := d.table.at(int(idx))
		if !ok {
			return HeaderField{}, nil, fmt.Errorf("%w: %d", ErrInvalidIndex, idx)
		}
		f.Name = e.Name
	} else {
		f.Name, data, err = readString(data)
		if err != nil {
			return HeaderField{}, nil, err
		}
	}
	f.Value, data, err = readString(data)
	if err != nil {
		return HeaderField{}, nil, err
	}
	return f, data, nil
}

func readInteger(data []byte, prefixBits uint) (uint64, []byte, error) {
	if len(data) == 0 {
		return 0, nil, ErrTruncated
	}
	maxPrefix := uint64(1)<<prefixBits - 1
	v := uint64(data[0]) & maxPrefix
	data = data[1:]
	if v < maxPrefix {
		return v, data, nil
	}
	var shift uint
	for i := 0; ; i++ {
		if i >= len(data) {
			return 0, nil, ErrTruncated
		}
		if shift > 56 {
			return 0, nil, ErrIntegerOverflow
		}
		b := data[i]
		v += uint64(b&0x7F) << shift
		shift += 7
		if b&0x80 == 0 {
			return v, data[i+1:], nil
		}
	}
}

func readString(data []byte) (string, []byte, error) {
	if len(data) == 0 {
		return "", nil, ErrTruncated
	}
	huff := data[0]&0x80 != 0
	n, rest, err := readInteger(data, 7)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(rest)) < n {
		return "", nil, ErrTruncated
	}
	raw := rest[:n]
	rest = rest[n:]
	if !huff {
		return string(raw), rest, nil
	}
	s, err := HuffmanDecode(raw)
	if err != nil {
		return "", nil, err
	}
	return s, rest, nil
}
