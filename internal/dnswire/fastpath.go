package dnswire

import "encoding/binary"

// This file is the allocation-free fast layer of the codec: a Query view
// that exposes a packed query's header and question without building a
// Message, and in-place patch helpers that let a cache serve stored wire
// bytes directly — restamping the transaction ID and decaying TTLs by
// rewriting the packed form, with no Unpack → mutate → Pack round trip.
// The helpers are proven byte-equivalent to the Message path by
// FuzzWireRewriteEquivalence.

// Query is a zero-allocation view of a packed DNS query: the header fields
// and first question parsed in place from Raw, which the view borrows (the
// caller must keep the packet alive and unmodified while the Query is in
// use). It is produced by ParseQuery and consumed by the wire-level serving
// fast path; anything ParseQuery cannot represent takes the Message path.
type Query struct {
	// Raw is the complete packet the view was parsed from.
	Raw []byte
	// ID is the client's transaction ID.
	ID uint16
	// Type and Class are the first (only) question's type and class.
	Type  Type
	Class Class
	// RecursionDesired mirrors the header RD bit.
	RecursionDesired bool
	// HasEDNS reports a well-formed trailing OPT record; UDPSize is its
	// advertised requestor payload size (0 without EDNS).
	HasEDNS bool
	UDPSize uint16
	// nameEnd is the offset of the question name's terminal zero octet.
	nameEnd int
}

// ParseQuery attempts the fast parse of a packed query. It accepts only the
// common stub shape — a non-truncated, non-response QUERY with exactly one
// question, no answer or authority records, an uncompressed question name,
// and at most one additional record which must be a root-name version-0 OPT
// (RFC 6891) — and reports ok=false for everything else, malformed or
// merely unusual; the caller falls back to Message.Unpack, which decides
// which of the two it was. A successful parse allocates nothing.
func ParseQuery(data []byte) (Query, bool) {
	var q Query
	if len(data) < headerLen+1+4 {
		return q, false
	}
	flags := binary.BigEndian.Uint16(data[2:])
	// QR, a non-QUERY opcode, or TC: not a plain query.
	if flags&(1<<15) != 0 || OpCode(flags>>11&0xF) != OpCodeQuery || flags&(1<<9) != 0 {
		return q, false
	}
	if binary.BigEndian.Uint16(data[4:]) != 1 || // QDCOUNT
		binary.BigEndian.Uint16(data[6:]) != 0 || // ANCOUNT
		binary.BigEndian.Uint16(data[8:]) != 0 { // NSCOUNT
		return q, false
	}
	ar := binary.BigEndian.Uint16(data[10:])
	if ar > 1 {
		return q, false
	}
	// Walk the question name: plain labels only (real queries never
	// compress their own name, and rejecting pointers keeps the view a
	// contiguous borrow of Raw). Labels must be ASCII: the Message path
	// canonicalizes names with a UTF-8-aware lower-casing that rewrites
	// arbitrary high bytes, so a cache keyed on the raw label bytes would
	// diverge from one keyed on Name.Canonical — non-ASCII names (IDN is
	// punycode on the wire, so real traffic never hits this) take the
	// Message path where one canonicalization rules.
	off := headerLen
	nameLen := 0
	for {
		if off >= len(data) {
			return q, false
		}
		b := data[off]
		if b == 0 {
			off++
			break
		}
		if b&0xC0 != 0 {
			return q, false
		}
		nameLen += int(b) + 1
		if nameLen+1 > maxNameLen || off+1+int(b) > len(data) {
			return q, false
		}
		for _, c := range data[off+1 : off+1+int(b)] {
			if c >= 0x80 {
				return q, false
			}
		}
		off += 1 + int(b)
	}
	if off+4 > len(data) {
		return q, false
	}
	q.nameEnd = off - 1
	q.Type = Type(binary.BigEndian.Uint16(data[off:]))
	q.Class = Class(binary.BigEndian.Uint16(data[off+2:]))
	off += 4
	if ar == 1 {
		// The only additional the fast path understands is a root-name OPT:
		// 00 | TYPE | CLASS=udpsize | TTL=ext-rcode/version/flags | RDLEN.
		if off+11 > len(data) || data[off] != 0 {
			return q, false
		}
		if Type(binary.BigEndian.Uint16(data[off+1:])) != TypeOPT {
			return q, false
		}
		ttl := binary.BigEndian.Uint32(data[off+5:])
		if uint8(ttl>>16) != 0 { // unknown EDNS version
			return q, false
		}
		rdlen := int(binary.BigEndian.Uint16(data[off+9:]))
		if off+11+rdlen > len(data) {
			return q, false
		}
		// Validate the option TLVs (without retaining them) so that a
		// fast-parse success implies the full codec accepts the record
		// too — otherwise a query with a mangled option would be answered
		// on a cache hit but rejected on the Message-path miss, making
		// its fate depend on cache contents.
		for opt := data[off+11 : off+11+rdlen]; len(opt) > 0; {
			if len(opt) < 4 {
				return q, false
			}
			n := int(binary.BigEndian.Uint16(opt[2:]))
			if 4+n > len(opt) {
				return q, false
			}
			opt = opt[4+n:]
		}
		q.HasEDNS = true
		q.UDPSize = binary.BigEndian.Uint16(data[off+3:])
		off += 11 + rdlen
	}
	if off != len(data) {
		return q, false
	}
	q.ID = binary.BigEndian.Uint16(data)
	q.RecursionDesired = flags&(1<<8) != 0
	q.Raw = data
	return q, true
}

// Parsed reports whether ParseQuery produced the view. A view of a query it
// declined carries only Raw, for the Message codec to read.
func (q *Query) Parsed() bool { return q.nameEnd != 0 }

// AppendCanonicalName appends the canonical presentation form of the
// question name — lower-cased labels joined and terminated by dots, "." for
// the root — to dst and returns the extended slice. It renders exactly what
// readName followed by Name.Canonical would produce for the same wire
// bytes, so wire-keyed and Message-keyed cache lookups agree, without
// allocating when dst has capacity.
func (q *Query) AppendCanonicalName(dst []byte) []byte {
	off := headerLen
	if q.nameEnd <= off {
		return append(dst, '.')
	}
	for off < q.nameEnd {
		l := int(q.Raw[off])
		off++
		for i := 0; i < l; i++ {
			c := q.Raw[off+i]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
		}
		dst = append(dst, '.')
		off += l
	}
	return dst
}

// AppendCanonicalQuestion appends the question in canonical wire form — the
// name's label octets with ASCII letters lower-cased, then type and class —
// to dst and returns the extended slice. Unlike the presentation form it
// keeps label boundaries, so a label holding a '.' and two labels differ;
// and it is, byte for byte, the lower-cased question of any reply
// ScanResponse passes for q, so a cache can key on the reply's own
// question. Length octets (at most 63) are never letters.
func (q *Query) AppendCanonicalQuestion(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, q.Raw[headerLen:q.nameEnd+5]...)
	for i, c := range dst[n : n+q.nameEnd-headerLen] {
		if 'A' <= c && c <= 'Z' {
			dst[n+i] = c + ('a' - 'A')
		}
	}
	return dst
}

// skipName returns the offset just past the (possibly compressed) name at
// off in a packed message, or ok=false when the bytes run out or a label
// length is malformed. It never follows pointers — for skipping, a pointer
// ends the name.
func skipName(wire []byte, off int) (int, bool) {
	for {
		if off >= len(wire) {
			return 0, false
		}
		b := wire[off]
		switch {
		case b == 0:
			return off + 1, true
		case b&0xC0 == 0xC0:
			if off+2 > len(wire) {
				return 0, false
			}
			return off + 2, true
		case b&0xC0 != 0:
			return 0, false
		default:
			off += 1 + int(b)
		}
	}
}

// QuestionEnd returns the offset just past the first question of a packed
// message — the prefix AppendEcho repeats — scanning leniently: the name may
// end in a compression pointer, which is not followed. ok=false when the
// message is too short, has no question, or the question runs past its end.
func QuestionEnd(wire []byte) (int, bool) {
	if len(wire) < headerLen || binary.BigEndian.Uint16(wire[4:]) == 0 {
		return 0, false
	}
	off, ok := skipName(wire, headerLen)
	if !ok || off+4 > len(wire) {
		return 0, false
	}
	return off + 4, true
}

// FindOPT walks a packed message to its first OPT record, as leniently as
// skipName walks names: qend is the end of the question section, and the
// record's TYPE field starts at opt (0 when there is none) and its RDATA
// ends at end. A message with no records past its questions is not walked:
// qend is its length. ok=false when the walk runs past the end.
func FindOPT(wire []byte) (qend, opt, end int, ok bool) {
	if len(wire) < headerLen {
		return 0, 0, 0, false
	}
	qd := int(binary.BigEndian.Uint16(wire[4:]))
	rrs := int(binary.BigEndian.Uint16(wire[6:])) + int(binary.BigEndian.Uint16(wire[8:])) + int(binary.BigEndian.Uint16(wire[10:]))
	if rrs == 0 {
		return len(wire), 0, 0, true // the common EDNS-less query: no name walk
	}
	off := headerLen
	for i := 0; i < qd; i++ {
		if off, ok = skipName(wire, off); !ok || off+4 > len(wire) {
			return 0, 0, 0, false
		}
		off += 4
	}
	qend = off
	for i := 0; i < rrs; i++ {
		if off, ok = skipName(wire, off); !ok || off+10 > len(wire) {
			return 0, 0, 0, false
		}
		if end = off + 10 + int(binary.BigEndian.Uint16(wire[off+8:])); end > len(wire) {
			return 0, 0, 0, false
		}
		if Type(binary.BigEndian.Uint16(wire[off:])) == TypeOPT {
			return qend, off, end, true
		}
		off = end
	}
	return qend, 0, 0, true
}

// AppendEcho appends to dst the reply that only echoes a query and says
// rcode: query[:qend] — the header and the question — with QR and RA set,
// opcode and RD kept, every other flag cleared but TC when tc is set, the
// record counts zeroed and the question name lower-cased, as Pack writes
// every name. The caller vouches that qend is just past a well-formed first
// question. It is the one builder of every such reply: the guard's TC=1
// slip and REFUSED, and through Query.AppendReply the serving core's
// SERVFAIL and the proxy's breaker REFUSED.
func AppendEcho(dst, query []byte, qend int, rcode RCode, tc bool) []byte {
	base := len(dst)
	dst = append(dst, query[:qend]...)
	flags := binary.BigEndian.Uint16(dst[base+2:])&(0xF<<11|1<<8) | 1<<15 | 1<<7 | uint16(rcode&0xF)
	if tc {
		flags |= 1 << 9
	}
	binary.BigEndian.PutUint16(dst[base+2:], flags)
	copy(dst[base+6:base+headerLen], "\x00\x00\x00\x00\x00\x00") // ANCOUNT, NSCOUNT, ARCOUNT
	// Labels run to the root octet or, in a query only QuestionEnd's lenient
	// scan accepted, a compression pointer.
	for off := base + headerLen; dst[off] != 0 && dst[off]&0xC0 == 0; {
		end := off + 1 + int(dst[off])
		for off++; off < end; off++ {
			if c := dst[off]; 'A' <= c && c <= 'Z' {
				dst[off] = c + ('a' - 'A')
			}
		}
	}
	return dst
}

// AppendReply appends to dst the bytes Unpack → Reply → RCode = rcode →
// Pack would produce for the query (FuzzEchoEquivalence holds it to that):
// its echo, plus Message.Reply's OPT — the classic payload size, DO
// mirrored — when the query carried EDNS.
func (q *Query) AppendReply(dst []byte, rcode RCode) []byte {
	qend := q.nameEnd + 1 + 4
	if !q.HasEDNS {
		return AppendEcho(dst, q.Raw, qend, rcode, false)
	}
	base := len(dst)
	r := AppendEcho(dst, q.Raw, qend, rcode, false)
	r[base+11] = 1 // ARCOUNT
	// Root name, TYPE, CLASS = payload size, TTL = ext-rcode, version and
	// flags (of the query's OPT only DO, the top bit of its third octet, is
	// mirrored), RDLEN 0.
	return append(r, 0, 0, byte(TypeOPT), maxUDPPayload>>8, maxUDPPayload&0xFF,
		0, 0, q.Raw[qend+7]&0x80, 0, 0, 0)
}

// PatchID overwrites the transaction ID of a packed message in place — the
// wire-path equivalent of unpacking, restamping Message.ID and repacking.
func PatchID(wire []byte, id uint16) {
	if len(wire) >= 2 {
		binary.BigEndian.PutUint16(wire, id)
	}
}

// PackTTLOffsets appends offsets as packed big-endian uint16 values to dst
// and returns the extended slice — the form a cache can store contiguously
// with the packed message it indexes (a DNS message is at most 65535
// bytes, so every offset fits). Decoded by DecayTTLsPacked.
func PackTTLOffsets(dst []byte, offsets []int) []byte {
	for _, off := range offsets {
		dst = append(dst, byte(off>>8), byte(off))
	}
	return dst
}

// DecayTTLsPacked caps every TTL a PackTTLOffsets-encoded offset list
// records at remaining seconds, rewriting the packed message in place. A
// trailing odd byte or an offset past the message end is ignored rather
// than panicking.
func DecayTTLsPacked(wire []byte, packed []byte, remaining uint32) {
	for i := 0; i+2 <= len(packed); i += 2 {
		off := int(binary.BigEndian.Uint16(packed[i:]))
		if off+4 > len(wire) {
			continue
		}
		if binary.BigEndian.Uint32(wire[off:]) > remaining {
			binary.BigEndian.PutUint32(wire[off:], remaining)
		}
	}
}
