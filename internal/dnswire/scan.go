package dnswire

import "encoding/binary"

// This file is the strict reader of packed responses: one pass that
// decides whether bytes from an upstream may be stored and served
// verbatim, and learns on the way everything a cache needs to file them —
// without building a Message. It accepts nothing Message.Unpack rejects
// (FuzzScanResponse), so bytes it passes can always take the Message path
// later.

// ResponseScan is what ScanResponse learns about a packed response.
type ResponseScan struct {
	// RCode is the header RCODE extended by the upper bits of any OPT
	// record, as Message.Unpack reports it; Truncated mirrors the TC bit.
	RCode     RCode
	Truncated bool
	// Answers counts the answer section's records, OPT pseudo-records
	// excluded (Unpack diverts them into Message.EDNS).
	Answers int
	// MinTTL is the smallest TTL over the answer and authority sections'
	// records; HasTTL is false when neither section has one.
	MinTTL uint32
	HasTTL bool
	// SOATTL is min(TTL, MINIMUM) of the authority section's first SOA
	// record — the RFC 2308 negative-caching TTL; HasSOA is false without
	// one.
	SOATTL uint32
	HasSOA bool
}

// Negative reports an RFC 2308 negative answer: NXDOMAIN, or NOERROR with
// an empty answer section (NODATA).
func (s *ResponseScan) Negative() bool {
	return s.RCode == RCodeNameError || (s.RCode == RCodeSuccess && s.Answers == 0)
}

// ScanResponse validates wire as a response to q, strictly and in a single
// pass: QR set, exactly one question equal to q's modulo ASCII case and
// uncompressed, every compression pointer aimed at the start of a label of
// a name that came before it (so no name can borrow bytes a later rewrite
// touches: an ID, a TTL), names within 255 octets, every RDLENGTH in
// bounds, the RDATA of every type the codec decodes well-formed, and no
// trailing bytes. The transaction ID is not examined — whoever sent the
// query upstream checks the echo (ValidateResponseWire). It appends the
// offset of every non-OPT record's TTL field to toffs in PackTTLOffsets
// form and returns the extended slice; with capacity in toffs the scan
// allocates nothing.
func ScanResponse(wire []byte, q *Query, toffs []byte) (ResponseScan, []byte, error) {
	return scanResponse(wire, q.Raw, toffs)
}

// scanResponse is ScanResponse against the packed query itself; a nil
// query skips the response and question checks and walks however many
// questions the header declares.
func scanResponse(wire, query, toffs []byte) (s ResponseScan, _ []byte, err error) {
	if len(wire) < headerLen {
		return s, toffs, ErrShortMessage
	}
	if len(wire) > MaxMessageLen {
		return s, toffs, ErrMessageTooLarge
	}
	flags := binary.BigEndian.Uint16(wire[2:])
	off := headerLen
	var labels labelSet
	if query != nil {
		if flags&(1<<15) == 0 {
			return s, toffs, ErrNotAResponse
		}
		if binary.BigEndian.Uint16(wire[4:]) != 1 {
			return s, toffs, ErrQuestionMismatch
		}
		if off, err = matchQuestion(query, wire, &labels); err != nil {
			return s, toffs, err
		}
	} else {
		for qd := binary.BigEndian.Uint16(wire[4:]); qd > 0; qd-- {
			if off, err = scanName(wire, off, &labels); err != nil {
				return s, toffs, err
			}
			if off += 4; off > len(wire) {
				return s, toffs, ErrShortMessage
			}
		}
	}
	s.RCode = RCode(flags & 0xF)
	s.Truncated = flags&(1<<9) != 0
	const answer, authority = 0, 1
	for section := 0; section < 3; section++ {
		for n := binary.BigEndian.Uint16(wire[6+2*section:]); n > 0; n-- {
			if off, err = scanName(wire, off, &labels); err != nil {
				return s, toffs, err
			}
			if off+10 > len(wire) {
				return s, toffs, ErrShortMessage
			}
			typ := Type(binary.BigEndian.Uint16(wire[off:]))
			ttl := binary.BigEndian.Uint32(wire[off+4:])
			rdlen := int(binary.BigEndian.Uint16(wire[off+8:]))
			ttlAt := off + 4
			off += 10
			if off+rdlen > len(wire) {
				return s, toffs, ErrRDataOutOfBounds
			}
			if err = scanRData(wire, off, rdlen, typ, &labels); err != nil {
				return s, toffs, err
			}
			off += rdlen
			if typ == TypeOPT {
				s.RCode |= RCode(ttl>>24) << 4
				continue
			}
			toffs = append(toffs, byte(ttlAt>>8), byte(ttlAt))
			if section == answer {
				s.Answers++
			}
			if section <= authority && (!s.HasTTL || ttl < s.MinTTL) {
				s.MinTTL, s.HasTTL = ttl, true
			}
			if section == authority && typ == TypeSOA && !s.HasSOA {
				s.SOATTL, s.HasSOA = min(ttl, binary.BigEndian.Uint32(wire[off-4:])), true
			}
		}
	}
	if off != len(wire) {
		return s, toffs, ErrTrailingGarbage
	}
	return s, toffs, nil
}

// ValidateResponseWire is ValidateResponse for packed messages: resp must
// be a response, echo id — the transaction ID the query went upstream
// under — and, when both carry a question, repeat query's first question
// modulo ASCII case. Nothing past the question is examined; ScanResponse
// is the structural check.
func ValidateResponseWire(query []byte, id uint16, resp []byte) error {
	if len(resp) < headerLen {
		return ErrShortMessage
	}
	if resp[2]&0x80 == 0 {
		return ErrNotAResponse
	}
	if binary.BigEndian.Uint16(resp) != id {
		return ErrIDMismatch
	}
	if len(query) >= headerLen && binary.BigEndian.Uint16(query[4:]) > 0 && binary.BigEndian.Uint16(resp[4:]) > 0 {
		_, err := matchQuestion(query, resp, nil)
		return err
	}
	return nil
}

// matchQuestion checks that resp's first question repeats query's — the
// same plain labels modulo ASCII case, the same type and class — and
// returns the offset just past it in resp. A compressed or malformed name
// on either side is a mismatch: queries never compress their own name, and
// a response's first name has nothing before it to point at. The name's
// label starts are recorded in labels when it is non-nil.
func matchQuestion(query, resp []byte, labels *labelSet) (int, error) {
	off := headerLen
	for {
		if off >= len(resp) || off >= len(query) {
			return 0, ErrShortMessage
		}
		b := resp[off]
		if b != query[off] || b&0xC0 != 0 {
			return 0, ErrQuestionMismatch
		}
		if labels != nil {
			labels.add(off)
		}
		off++
		if b == 0 {
			break
		}
		end := off + int(b)
		if end > len(resp) || end > len(query) {
			return 0, ErrShortMessage
		}
		if end+1 > headerLen+maxNameLen {
			return 0, ErrNameTooLong
		}
		for ; off < end; off++ {
			if c, d := resp[off], query[off]; c != d && (c|0x20 != d|0x20 || c|0x20 < 'a' || c|0x20 > 'z') {
				return 0, ErrQuestionMismatch
			}
		}
	}
	if off+4 > len(resp) || off+4 > len(query) {
		return 0, ErrShortMessage
	}
	if [4]byte(resp[off:]) != [4]byte(query[off:]) {
		return 0, ErrQuestionMismatch
	}
	return off + 4, nil
}

// labelSet records where the labels (and terminal octets) of the names a
// scan has walked begin, for every offset a compression pointer can
// express. A pointer is only followed to a recorded offset: from there on
// the name is a suffix the scan has already validated, lying entirely in
// name bytes.
type labelSet [1 << 14 / 64]uint64

func (l *labelSet) add(off int) {
	if off < 1<<14 {
		l[off>>6] |= 1 << (off & 63)
	}
}

func (l *labelSet) has(off int) bool { return l[off>>6]&(1<<(off&63)) != 0 }

// scanName is readName without the rendering, and stricter about
// pointers: it validates the possibly compressed name at off — readName's
// rules, plus every pointer landing on a label start recorded in labels —
// records the name's own label starts, and returns the offset just past its
// in-place representation.
func scanName(msg []byte, off int, labels *labelSet) (int, error) {
	start, nameLen := off, 0
	for {
		if off >= len(msg) {
			return 0, ErrShortMessage
		}
		b := msg[off]
		switch {
		case b == 0:
			labels.add(off)
			return off + 1, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return 0, ErrShortMessage
			}
			// A recorded offset before this name's own start belongs to a
			// name already validated to its end, so what follows the target
			// is sound — and cannot lead back here — except for the length
			// of the name the two parts make.
			target := int(b&0x3F)<<8 | int(msg[off+1])
			if target >= start || !labels.has(target) {
				return 0, ErrCompressionLoop
			}
			if nameLen+suffixLen(msg, target)+1 > maxNameLen {
				return 0, ErrNameTooLong
			}
			return off + 2, nil
		case b&0xC0 != 0:
			return 0, ErrShortMessage
		default:
			end := off + 1 + int(b)
			if end > len(msg) {
				return 0, ErrShortMessage
			}
			if nameLen += int(b) + 1; nameLen+1 > maxNameLen {
				return 0, ErrNameTooLong
			}
			labels.add(off)
			off = end
		}
	}
}

// suffixLen is the length, terminal octet excluded, of the already
// validated name suffix starting at off.
func suffixLen(msg []byte, off int) (n int) {
	for {
		switch b := msg[off]; {
		case b == 0:
			return n
		case b&0xC0 == 0xC0:
			off = int(b&0x3F)<<8 | int(msg[off+1])
		default:
			n += int(b) + 1
			off += 1 + int(b)
		}
	}
}

// scanRData validates msg[off:off+length] as the RDATA of a typ record
// under the rules of that type's decodeFrom; types the codec carries raw
// (Unknown) have none. The caller has checked the window lies in msg.
func scanRData(msg []byte, off, length int, typ Type, labels *labelSet) error {
	end := off + length
	nameAt := -1 // offset of a name that must end exactly at end
	switch typ {
	case TypeA:
		if length != 4 {
			return ErrRDataOutOfBounds
		}
	case TypeAAAA:
		if length != 16 {
			return ErrRDataOutOfBounds
		}
	case TypeCNAME, TypeNS, TypePTR:
		nameAt = off
	case TypeMX:
		if length < 3 {
			return ErrShortMessage
		}
		nameAt = off + 2
	case TypeSRV:
		if length < 7 {
			return ErrShortMessage
		}
		nameAt = off + 6
	case TypeSOA:
		var err error
		for i := 0; i < 2; i++ {
			if off, err = scanName(msg, off, labels); err != nil {
				return err
			}
		}
		if off+20 != end {
			return ErrRDataOutOfBounds
		}
	case TypeTXT:
		for off < end {
			if off += 1 + int(msg[off]); off > end {
				return ErrRDataOutOfBounds
			}
		}
	case TypeCAA:
		if length < 2 {
			return ErrShortMessage
		}
		if off+2+int(msg[off+1]) > end {
			return ErrRDataOutOfBounds
		}
	case TypeOPT:
		for off < end {
			if off+4 > end {
				return ErrRDataOutOfBounds
			}
			if off += 4 + int(binary.BigEndian.Uint16(msg[off+2:])); off > end {
				return ErrRDataOutOfBounds
			}
		}
	}
	if nameAt >= 0 {
		if nameEnd, err := scanName(msg, nameAt, labels); err != nil {
			return err
		} else if nameEnd != end {
			return ErrRDataOutOfBounds
		}
	}
	return nil
}
