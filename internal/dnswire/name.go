package dnswire

import (
	"strings"
)

// A Name is a domain name in presentation format, e.g. "www.example.com.".
// The empty string and "." both denote the root. Names compare
// case-insensitively on the wire; Canonical lower-cases for map keys.
type Name string

// Root is the DNS root name.
const Root Name = "."

// Canonical returns the name lower-cased with exactly one trailing dot,
// suitable for use as a cache or zone map key.
func (n Name) Canonical() Name {
	s := strings.ToLower(string(n))
	if s == "" || s == "." {
		return Root
	}
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	return Name(s)
}

// IsSubdomainOf reports whether n falls at or under zone (both canonicalized).
func (n Name) IsSubdomainOf(zone Name) bool {
	nz, zz := string(n.Canonical()), string(zone.Canonical())
	if zz == "." {
		return true
	}
	return nz == zz || strings.HasSuffix(nz, "."+zz)
}

// validate checks label and total-length constraints without allocating the
// wire form. The wire length is len(canonical name) + 1 for non-root names
// (each dot becomes a length octet, plus the terminal zero octet).
func (n Name) validate() error {
	c := string(n.Canonical())
	if c == "." {
		return nil
	}
	if len(c)+1 > maxNameLen {
		return ErrNameTooLong
	}
	start := 0
	for i := 0; i < len(c); i++ {
		if c[i] != '.' {
			continue
		}
		if i == start {
			return ErrEmptyLabel
		}
		if i-start > maxLabelLen {
			return ErrLabelTooLong
		}
		start = i + 1
	}
	return nil
}

// compressionMap records the message-relative offset at which each name
// suffix was first emitted, so later occurrences can be replaced by a
// two-octet pointer (RFC 1035 §4.1.4). Only offsets representable in 14
// bits are usable. base is the buffer index of the message's first octet:
// AppendPack may serialize after existing bytes (a stream server packs
// past its two-octet length prefix), and pointers must stay relative to
// the message start, not the buffer start. The zero value (nil offsets)
// disables compression, as required inside OPT and in DNSSEC canonical
// forms.
type compressionMap struct {
	offsets map[string]int
	base    int
}

// appendName packs n at the end of msg, consulting and updating cmap. The
// name is lower-cased on the wire; DNS names are case-insensitive and the
// study never relies on 0x20 encoding.
func appendName(msg []byte, n Name, cmap compressionMap) ([]byte, error) {
	if err := n.validate(); err != nil {
		return msg, err
	}
	c := string(n.Canonical())
	if c == "." {
		return append(msg, 0), nil
	}
	// Walk suffixes: "www.example.com." then "example.com." then "com.".
	rest := c
	for rest != "" {
		if cmap.offsets != nil {
			if off, ok := cmap.offsets[rest]; ok {
				return append(msg, 0xC0|byte(off>>8), byte(off)), nil
			}
			if off := len(msg) - cmap.base; off <= 0x3FFF {
				cmap.offsets[rest] = off
			}
		}
		dot := strings.IndexByte(rest, '.')
		label := rest[:dot]
		msg = append(msg, byte(len(label)))
		msg = append(msg, label...)
		rest = rest[dot+1:]
	}
	return append(msg, 0), nil
}

// nameWireLen returns the number of octets n occupies uncompressed.
func nameWireLen(n Name) int {
	c := string(n.Canonical())
	if c == "." {
		return 1
	}
	return len(c) + 1
}

// readName decodes a possibly-compressed name starting at off in msg and
// returns the name plus the offset just past its in-place representation
// (i.e. past the first pointer if one was followed). Pointer chains may only
// jump strictly backwards, which both matches all real encoders and bounds
// the walk, preventing decompression loops. The presentation form is
// rendered into a stack buffer — a name's labels and dots never exceed
// maxNameLen octets — and converted once, so a name costs one allocation.
func readName(msg []byte, off int) (Name, int, error) {
	var buf [maxNameLen]byte
	n := 0     // presentation octets rendered so far; also the wire length minus the terminal octet
	next := -1 // resume offset after the first pointer, -1 while unset
	ptrBudget := len(msg)
	for {
		if off >= len(msg) {
			return "", 0, ErrShortMessage
		}
		b := msg[off]
		switch {
		case b == 0: // terminal root label
			if next == -1 {
				next = off + 1
			}
			if n == 0 {
				return Root, next, nil
			}
			return Name(buf[:n]), next, nil
		case b&0xC0 == 0xC0: // compression pointer
			if off+1 >= len(msg) {
				return "", 0, ErrShortMessage
			}
			target := int(b&0x3F)<<8 | int(msg[off+1])
			if target >= off {
				return "", 0, ErrCompressionLoop
			}
			if next == -1 {
				next = off + 2
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return "", 0, ErrCompressionLoop
			}
			off = target
		case b&0xC0 != 0: // 0x40/0x80 label types were never standardized
			return "", 0, ErrShortMessage
		default: // ordinary label
			end := off + 1 + int(b)
			if end > len(msg) {
				return "", 0, ErrShortMessage
			}
			if n+int(b)+2 > maxNameLen {
				return "", 0, ErrNameTooLong
			}
			n += copy(buf[n:], msg[off+1:end])
			buf[n] = '.'
			n++
			off = end
		}
	}
}
