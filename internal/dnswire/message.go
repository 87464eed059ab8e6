package dnswire

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
)

// Question is one entry of a message's question section.
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String renders the question in dig-like presentation.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// ResourceRecord is one RR of the answer, authority, or additional section.
// OPT pseudo-records are not represented here; the Message codec folds them
// into the EDNS fields below.
type ResourceRecord struct {
	Name  Name
	Class Class
	TTL   uint32
	Data  RData
}

// Type reports the record's RR type, derived from its payload.
func (rr ResourceRecord) Type() Type {
	if rr.Data == nil {
		return TypeNone
	}
	return rr.Data.Type()
}

// String renders the record in zone-file presentation.
func (rr ResourceRecord) String() string {
	return fmt.Sprintf("%s %d %s %s %s", rr.Name, rr.TTL, rr.Class, rr.Type(), rr.Data)
}

// EDNS carries the fields of an OPT pseudo-record in unpacked form
// (RFC 6891). A nil *EDNS on a Message means no OPT record is present. The
// OPT's share of the 12-bit extended RCODE, its upper 8 bits, is not here:
// it is the Message's RCode above 15.
type EDNS struct {
	UDPSize uint16 // requestor's maximum UDP payload
	Version uint8
	DO      bool // DNSSEC OK
	Options []EDNS0Option
}

// Message is a complete DNS message in unpacked form. The zero value is a
// valid empty query.
type Message struct {
	ID                 uint16
	Response           bool
	OpCode             OpCode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	AuthenticData      bool
	CheckingDisabled   bool
	RCode              RCode

	Questions   []Question
	Answers     []ResourceRecord
	Authorities []ResourceRecord
	Additionals []ResourceRecord

	// EDNS, when non-nil, is packed as an OPT record at the end of the
	// additional section and populated from one on unpack.
	EDNS *EDNS
}

// NewQuery returns a recursion-desired query for (name, type) with the given
// transaction ID and a 4096-byte EDNS(0) OPT record, mirroring what stub
// resolvers emit in practice.
func NewQuery(id uint16, name Name, t Type) *Message {
	return &Message{
		ID:               id,
		RecursionDesired: true,
		Questions:        []Question{{Name: name.Canonical(), Type: t, Class: ClassINET}},
		EDNS:             &EDNS{UDPSize: 4096},
	}
}

// Reply returns a response skeleton for m: same ID, opcode and question,
// recursion bits mirrored, ready for answers to be appended.
func (m *Message) Reply() *Message {
	r := &Message{
		ID:                 m.ID,
		Response:           true,
		OpCode:             m.OpCode,
		RecursionDesired:   m.RecursionDesired,
		RecursionAvailable: true,
		Questions:          append([]Question(nil), m.Questions...),
	}
	if m.EDNS != nil {
		r.EDNS = &EDNS{UDPSize: maxUDPPayload, DO: m.EDNS.DO}
	}
	return r
}

// Question1 returns the first question, or a zero Question if none.
func (m *Message) Question1() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// flags packs the second header word.
func (m *Message) flags() uint16 {
	var f uint16
	if m.Response {
		f |= 1 << 15
	}
	f |= uint16(m.OpCode&0xF) << 11
	if m.Authoritative {
		f |= 1 << 10
	}
	if m.Truncated {
		f |= 1 << 9
	}
	if m.RecursionDesired {
		f |= 1 << 8
	}
	if m.RecursionAvailable {
		f |= 1 << 7
	}
	if m.AuthenticData {
		f |= 1 << 5
	}
	if m.CheckingDisabled {
		f |= 1 << 4
	}
	f |= uint16(m.RCode) & 0xF
	return f
}

func (m *Message) setFlags(f uint16) {
	m.Response = f&(1<<15) != 0
	m.OpCode = OpCode(f >> 11 & 0xF)
	m.Authoritative = f&(1<<10) != 0
	m.Truncated = f&(1<<9) != 0
	m.RecursionDesired = f&(1<<8) != 0
	m.RecursionAvailable = f&(1<<7) != 0
	m.AuthenticData = f&(1<<5) != 0
	m.CheckingDisabled = f&(1<<4) != 0
	m.RCode = RCode(f & 0xF)
}

// packScratch is what packing a message needs and no caller keeps: the
// compression map, and for Pack the buffer the message is assembled in.
type packScratch struct {
	buf     []byte
	offsets map[string]int
}

var packScratches = sync.Pool{New: func() any {
	return &packScratch{buf: make([]byte, 0, 512), offsets: make(map[string]int, 8)}
}}

// release empties the map — its keys are substrings of the message's names —
// and returns p to the pool, without a buffer one large message grew.
func (p *packScratch) release() {
	clear(p.offsets)
	if cap(p.buf) > 4096 {
		p.buf = make([]byte, 0, 512)
	}
	packScratches.Put(p)
}

// Pack serializes the message with name compression, into a slice of
// exactly its size: the one allocation of a warm Pack.
func (m *Message) Pack() ([]byte, error) {
	p := packScratches.Get().(*packScratch)
	defer p.release()
	buf, err := m.appendPack(p.buf[:0], p.offsets)
	p.buf = buf[:0]
	return append(make([]byte, 0, len(buf)), buf...), err
}

// AppendPack serializes the message onto buf and returns the extended
// slice. Compression pointers are relative to the start of the appended
// message (the initial len(buf)), so a caller may pack after existing
// bytes — the stream servers pack directly behind their two-octet length
// prefix — and the serving hot path packs into pooled buffers.
func (m *Message) AppendPack(buf []byte) ([]byte, error) {
	p := packScratches.Get().(*packScratch)
	defer p.release()
	return m.appendPack(buf, p.offsets)
}

func (m *Message) appendPack(buf []byte, offsets map[string]int) ([]byte, error) {
	base := len(buf)
	additionals := len(m.Additionals)
	if m.EDNS != nil {
		additionals++
	}
	if len(m.Questions) > 0xFFFF || len(m.Answers) > 0xFFFF ||
		len(m.Authorities) > 0xFFFF || additionals > 0xFFFF {
		return buf, ErrTooManyRecords
	}
	if m.RCode > 0xFFF || (m.RCode > 0xF && m.EDNS == nil) {
		return buf, ErrRCodeRange
	}

	buf = binary.BigEndian.AppendUint16(buf, m.ID)
	buf = binary.BigEndian.AppendUint16(buf, m.flags())
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Questions)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Answers)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Authorities)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(additionals))

	cmap := compressionMap{offsets: offsets, base: base}
	var err error
	for _, q := range m.Questions {
		if buf, err = appendName(buf, q.Name, cmap); err != nil {
			return buf, fmt.Errorf("dnswire: packing question %s: %w", q.Name, err)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, section := range [][]ResourceRecord{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range section {
			if buf, err = appendRR(buf, rr, cmap); err != nil {
				return buf, err
			}
		}
	}
	if m.EDNS != nil {
		if buf, err = appendOPT(buf, m.EDNS, m.RCode); err != nil {
			return buf, err
		}
	}
	if len(buf)-base > MaxMessageLen {
		return buf, ErrMessageTooLarge
	}
	return buf, nil
}

func appendRR(buf []byte, rr ResourceRecord, cmap compressionMap) ([]byte, error) {
	if rr.Data == nil {
		return buf, fmt.Errorf("dnswire: record %s has nil rdata", rr.Name)
	}
	var err error
	if buf, err = appendName(buf, rr.Name, cmap); err != nil {
		return buf, fmt.Errorf("dnswire: packing record %s: %w", rr.Name, err)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type()))
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	lenAt := len(buf)
	buf = append(buf, 0, 0) // RDLENGTH placeholder
	if buf, err = rr.Data.appendTo(buf, cmap); err != nil {
		return buf, fmt.Errorf("dnswire: packing %s rdata for %s: %w", rr.Type(), rr.Name, err)
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xFFFF {
		return buf, ErrMessageTooLarge
	}
	binary.BigEndian.PutUint16(buf[lenAt:], uint16(rdlen))
	return buf, nil
}

// appendOPT appends e as an OPT record carrying rcode's upper 8 bits; the
// header carries the lower 4.
func appendOPT(buf []byte, e *EDNS, rcode RCode) ([]byte, error) {
	var err error
	if buf, err = appendName(buf, Root, compressionMap{}); err != nil {
		return buf, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(TypeOPT))
	buf = binary.BigEndian.AppendUint16(buf, e.UDPSize)
	ttl := uint32(uint8(rcode>>4))<<24 | uint32(e.Version)<<16
	if e.DO {
		ttl |= 1 << 15
	}
	buf = binary.BigEndian.AppendUint32(buf, ttl)
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	opt := &OPT{Options: e.Options}
	if buf, err = opt.appendTo(buf, compressionMap{}); err != nil {
		return buf, err
	}
	binary.BigEndian.PutUint16(buf[lenAt:], uint16(len(buf)-lenAt-2))
	return buf, nil
}

// Unpack parses a complete wire-format message, rejecting trailing bytes.
func (m *Message) Unpack(data []byte) error {
	n, err := m.unpack(data)
	if err != nil {
		return err
	}
	if n != len(data) {
		return ErrTrailingGarbage
	}
	return nil
}

func (m *Message) unpack(data []byte) (int, error) {
	if len(data) < headerLen {
		return 0, ErrShortMessage
	}
	m.ID = binary.BigEndian.Uint16(data)
	m.setFlags(binary.BigEndian.Uint16(data[2:]))
	qd := int(binary.BigEndian.Uint16(data[4:]))
	an := int(binary.BigEndian.Uint16(data[6:]))
	ns := int(binary.BigEndian.Uint16(data[8:]))
	ar := int(binary.BigEndian.Uint16(data[10:]))
	// A question needs ≥5 octets, a record ≥11; reject absurd counts early
	// so hostile headers cannot trigger huge allocations.
	if qd*5+an*11+ns*11+ar*11 > len(data)-headerLen {
		return 0, ErrTooManyRecords
	}
	m.Questions = m.Questions[:0]
	m.Answers = m.Answers[:0]
	m.Authorities = m.Authorities[:0]
	m.Additionals = m.Additionals[:0]
	m.EDNS = nil

	off := headerLen
	for i := 0; i < qd; i++ {
		var q Question
		var err error
		if q.Name, off, err = readName(data, off); err != nil {
			return 0, err
		}
		if off+4 > len(data) {
			return 0, ErrShortMessage
		}
		q.Type = Type(binary.BigEndian.Uint16(data[off:]))
		q.Class = Class(binary.BigEndian.Uint16(data[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	var err error
	if m.Answers, off, err = m.readSection(data, off, an, m.Answers); err != nil {
		return 0, err
	}
	if m.Authorities, off, err = m.readSection(data, off, ns, m.Authorities); err != nil {
		return 0, err
	}
	if m.Additionals, off, err = m.readSection(data, off, ar, m.Additionals); err != nil {
		return 0, err
	}
	return off, nil
}

// readSection decodes count records, diverting OPT pseudo-records into
// m.EDNS rather than the returned slice.
func (m *Message) readSection(data []byte, off, count int, dst []ResourceRecord) ([]ResourceRecord, int, error) {
	for i := 0; i < count; i++ {
		name, next, err := readName(data, off)
		if err != nil {
			return dst, 0, err
		}
		off = next
		if off+10 > len(data) {
			return dst, 0, ErrShortMessage
		}
		typ := Type(binary.BigEndian.Uint16(data[off:]))
		class := Class(binary.BigEndian.Uint16(data[off+2:]))
		ttl := binary.BigEndian.Uint32(data[off+4:])
		rdlen := int(binary.BigEndian.Uint16(data[off+8:]))
		off += 10
		if off+rdlen > len(data) {
			return dst, 0, ErrRDataOutOfBounds
		}
		if typ == TypeOPT {
			e := &EDNS{
				UDPSize: uint16(class),
				Version: uint8(ttl >> 16),
				DO:      ttl&(1<<15) != 0,
			}
			opt := &OPT{}
			if err := opt.decodeFrom(data, off, rdlen); err != nil {
				return dst, 0, err
			}
			e.Options = opt.Options
			m.EDNS = e
			m.RCode |= RCode(ttl>>24) << 4
			off += rdlen
			continue
		}
		rd := newRData(typ)
		if err := rd.decodeFrom(data, off, rdlen); err != nil {
			return dst, 0, fmt.Errorf("dnswire: decoding %s rdata for %s: %w", typ, name, err)
		}
		off += rdlen
		dst = append(dst, ResourceRecord{Name: name, Class: class, TTL: ttl, Data: rd})
	}
	return dst, off, nil
}

// ValidateResponse checks that resp is a well-formed answer to query q:
// it must be a response, echo q's ID, and (when a question is echoed, which
// all real resolvers do) match q's first question.
func ValidateResponse(q, resp *Message) error {
	if !resp.Response {
		return ErrNotAResponse
	}
	if resp.ID != q.ID {
		return ErrIDMismatch
	}
	if len(resp.Questions) > 0 && len(q.Questions) > 0 {
		want, got := q.Questions[0], resp.Questions[0]
		if want.Name.Canonical() != got.Name.Canonical() || want.Type != got.Type || want.Class != got.Class {
			return fmt.Errorf("dnswire: response question %s does not match query %s", got, want)
		}
	}
	return nil
}

// String renders the message in a dig-like multi-section dump.
func (m *Message) String() string {
	var sb strings.Builder
	kind := "query"
	if m.Response {
		kind = "response"
	}
	fmt.Fprintf(&sb, ";; %s %s id=%d rcode=%s", m.OpCode, kind, m.ID, m.RCode)
	if m.Truncated {
		sb.WriteString(" TC")
	}
	sb.WriteByte('\n')
	for _, q := range m.Questions {
		fmt.Fprintf(&sb, ";%s\n", q)
	}
	for _, section := range []struct {
		label string
		rrs   []ResourceRecord
	}{{"ANSWER", m.Answers}, {"AUTHORITY", m.Authorities}, {"ADDITIONAL", m.Additionals}} {
		for _, rr := range section.rrs {
			fmt.Fprintf(&sb, "%s: %s\n", section.label, rr)
		}
	}
	return sb.String()
}
