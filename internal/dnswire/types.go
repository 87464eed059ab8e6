// Package dnswire implements the DNS wire format (RFC 1035 and friends):
// message packing and unpacking, domain-name compression, EDNS(0), and the
// resource-record types needed by the DoH cost study (A, NS, CNAME, SOA,
// PTR, MX, TXT, AAAA, SRV, OPT and CAA), plus a raw escape hatch for
// everything else.
//
// The codec is allocation-conscious: packing appends into a caller-supplied
// buffer, and unpacking borrows from the input only where safe (copies are
// made for retained byte slices). It is the substrate every DNS transport in
// this repository (UDP, TCP, DoT, DoH) carries on the wire.
package dnswire

import "fmt"

// Type is a DNS resource record type (RFC 1035 §3.2.2 and successors).
type Type uint16

// Resource record types used by the study.
const (
	TypeNone  Type = 0
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeSRV   Type = 33
	TypeOPT   Type = 41
	TypeDS    Type = 43
	TypeRRSIG Type = 46
	TypeCAA   Type = 257
	TypeANY   Type = 255
)

var typeNames = map[Type]string{
	TypeA:     "A",
	TypeNS:    "NS",
	TypeCNAME: "CNAME",
	TypeSOA:   "SOA",
	TypePTR:   "PTR",
	TypeMX:    "MX",
	TypeTXT:   "TXT",
	TypeAAAA:  "AAAA",
	TypeSRV:   "SRV",
	TypeOPT:   "OPT",
	TypeDS:    "DS",
	TypeRRSIG: "RRSIG",
	TypeCAA:   "CAA",
	TypeANY:   "ANY",
}

// String returns the conventional mnemonic ("A", "AAAA", …) or "TYPEn" for
// types without one (RFC 3597 presentation).
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// ParseType maps a mnemonic back to its Type; it accepts the same set
// String produces. The boolean reports whether the mnemonic was known.
func ParseType(s string) (Type, bool) {
	for t, name := range typeNames {
		if name == s {
			return t, true
		}
	}
	return TypeNone, false
}

// Class is a DNS class. Only IN sees real-world use; OPT pseudo-records
// repurpose the field for the requestor's UDP payload size (RFC 6891).
type Class uint16

// DNS classes.
const (
	ClassINET   Class = 1
	ClassCHAOS  Class = 3
	ClassHESIOD Class = 4
	ClassANY    Class = 255
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassINET:
		return "IN"
	case ClassCHAOS:
		return "CH"
	case ClassHESIOD:
		return "HS"
	case ClassANY:
		return "ANY"
	}
	return fmt.Sprintf("CLASS%d", uint16(c))
}

// OpCode is a DNS operation code (header bits 1-4).
type OpCode uint8

// Operation codes.
const (
	OpCodeQuery  OpCode = 0
	OpCodeIQuery OpCode = 1
	OpCodeStatus OpCode = 2
	OpCodeNotify OpCode = 4
	OpCodeUpdate OpCode = 5
)

// String implements fmt.Stringer.
func (o OpCode) String() string {
	switch o {
	case OpCodeQuery:
		return "QUERY"
	case OpCodeIQuery:
		return "IQUERY"
	case OpCodeStatus:
		return "STATUS"
	case OpCodeNotify:
		return "NOTIFY"
	case OpCodeUpdate:
		return "UPDATE"
	}
	return fmt.Sprintf("OPCODE%d", uint8(o))
}

// RCode is a DNS response code (header bits 12-15, possibly extended by
// EDNS(0)).
type RCode uint16

// Response codes.
const (
	RCodeSuccess        RCode = 0 // NOERROR
	RCodeFormatError    RCode = 1 // FORMERR
	RCodeServerFailure  RCode = 2 // SERVFAIL
	RCodeNameError      RCode = 3 // NXDOMAIN
	RCodeNotImplemented RCode = 4 // NOTIMP
	RCodeRefused        RCode = 5 // REFUSED
	// RCodeBadVersion is extended: the OPT record carries its upper 8
	// bits (RFC 6891 §6.1.3).
	RCodeBadVersion RCode = 16 // BADVERS
)

// String implements fmt.Stringer.
func (r RCode) String() string {
	switch r {
	case RCodeSuccess:
		return "NOERROR"
	case RCodeFormatError:
		return "FORMERR"
	case RCodeServerFailure:
		return "SERVFAIL"
	case RCodeNameError:
		return "NXDOMAIN"
	case RCodeNotImplemented:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	case RCodeBadVersion:
		return "BADVERS"
	}
	return fmt.Sprintf("RCODE%d", uint16(r))
}

// Wire-format size limits (RFC 1035 §2.3.4, §4.2.1).
const (
	maxLabelLen   = 63
	maxNameLen    = 255
	headerLen     = 12
	maxUDPPayload = 512   // classic DNS-over-UDP ceiling without EDNS(0)
	MaxMessageLen = 65535 // TCP/DoT/DoH length-prefix ceiling
)

// Errors returned by the codec. They are sentinel values so tests and
// callers can match on them with errors.Is.
var (
	ErrNameTooLong      = fmt.Errorf("dnswire: name exceeds %d octets", maxNameLen)
	ErrLabelTooLong     = fmt.Errorf("dnswire: label exceeds %d octets", maxLabelLen)
	ErrEmptyLabel       = fmt.Errorf("dnswire: empty label inside name")
	ErrShortMessage     = fmt.Errorf("dnswire: message truncated")
	ErrCompressionLoop  = fmt.Errorf("dnswire: compression pointer loop")
	ErrTrailingGarbage  = fmt.Errorf("dnswire: trailing bytes after message")
	ErrTooManyRecords   = fmt.Errorf("dnswire: section count exceeds message size")
	ErrMessageTooLarge  = fmt.Errorf("dnswire: message exceeds 65535 octets")
	ErrRCodeRange       = fmt.Errorf("dnswire: RCODE above 15 without an OPT record, or above 4095")
	ErrNotAResponse     = fmt.Errorf("dnswire: message is not a response")
	ErrIDMismatch       = fmt.Errorf("dnswire: response ID does not match query")
	ErrRDataOutOfBounds = fmt.Errorf("dnswire: rdata extends past message")
	ErrQuestionMismatch = fmt.Errorf("dnswire: response question does not match query")
)
