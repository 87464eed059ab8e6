// Package h2 implements the HTTP/2 subset the DoH cost study needs
// (RFC 7540): framing, HPACK header compression via internal/hpack, stream
// multiplexing with flow control, and client and server connection types.
//
// Two properties matter for the experiments and drove the design:
//
//   - Stream independence. Responses complete as their frames arrive,
//     regardless of order, which is what rescues DoH from the head-of-line
//     blocking that serializes DoT and pipelined HTTP/1.1 (Figure 2).
//
//   - Transparent accounting. The Framer tallies every byte it moves into
//     the paper's Figure 5 buckets — DATA payloads (Body), HEADERS payloads
//     (Hdr), and frame headers plus connection-management frames (Mgmt) —
//     so layer costs are measured, not inferred.
//
// A message, not a frame, is the unit of emission: a request or response
// whose body fits the send windows and one frame leaves as HEADERS
// (+CONTINUATION) + DATA(END_STREAM) in a single Write — one TLS record, one
// syscall, one wake-up at the peer — and connection-level flow-control
// credit is returned when half the window is owed, not per DATA frame. A
// Framer flight (Begin/Add/End) is the mechanism; bodies that do not fit
// fall back to one flight per DATA frame under flow control.
//
// The paper's Figures 3–5 were captured from 2019 browser/provider pairs
// that emitted every frame as its own flight and credited every DATA frame
// at once (8–11 packets per persistent resolution). The Emission model
// parameter FramePerFlight reproduces that through the same code — flights
// of one frame, a credit threshold of one byte. Only the study sets it:
// core.Topology on the resolvers it deploys and on the DoH clients it hands
// out. Everything else, the forwarding proxy included, takes the default.
package h2

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"dohcost/internal/meter"
)

// FrameType is an HTTP/2 frame type (RFC 7540 §6).
type FrameType uint8

// Frame types.
const (
	FrameData         FrameType = 0x0
	FrameHeaders      FrameType = 0x1
	FramePriority     FrameType = 0x2
	FrameRSTStream    FrameType = 0x3
	FrameSettings     FrameType = 0x4
	FramePushPromise  FrameType = 0x5
	FramePing         FrameType = 0x6
	FrameGoAway       FrameType = 0x7
	FrameWindowUpdate FrameType = 0x8
	FrameContinuation FrameType = 0x9
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case FrameData:
		return "DATA"
	case FrameHeaders:
		return "HEADERS"
	case FramePriority:
		return "PRIORITY"
	case FrameRSTStream:
		return "RST_STREAM"
	case FrameSettings:
		return "SETTINGS"
	case FramePushPromise:
		return "PUSH_PROMISE"
	case FramePing:
		return "PING"
	case FrameGoAway:
		return "GOAWAY"
	case FrameWindowUpdate:
		return "WINDOW_UPDATE"
	case FrameContinuation:
		return "CONTINUATION"
	}
	return fmt.Sprintf("FRAME_%#x", uint8(t))
}

// Frame flags.
const (
	FlagEndStream  = 0x1 // DATA, HEADERS
	FlagAck        = 0x1 // SETTINGS, PING
	FlagEndHeaders = 0x4 // HEADERS, CONTINUATION
	FlagPadded     = 0x8 // DATA, HEADERS
	FlagPriority   = 0x20
)

// Settings identifiers (RFC 7540 §6.5.2).
const (
	SettingHeaderTableSize      = 0x1
	SettingEnablePush           = 0x2
	SettingMaxConcurrentStreams = 0x3
	SettingInitialWindowSize    = 0x4
	SettingMaxFrameSize         = 0x5
	SettingMaxHeaderListSize    = 0x6
)

// Protocol constants.
const (
	// ClientPreface opens every client connection (RFC 7540 §3.5).
	ClientPreface = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

	frameHeaderLen           = 9
	defaultMaxFrameSize      = 16384
	defaultInitialWindowSize = 65535
	maxWindow                = 1<<31 - 1
)

// ErrCode is an HTTP/2 error code for RST_STREAM and GOAWAY.
type ErrCode uint32

// Error codes used by this implementation.
const (
	ErrCodeNo              ErrCode = 0x0
	ErrCodeProtocol        ErrCode = 0x1
	ErrCodeInternal        ErrCode = 0x2
	ErrCodeFlowControl     ErrCode = 0x3
	ErrCodeStreamClosed    ErrCode = 0x5
	ErrCodeFrameSize       ErrCode = 0x6
	ErrCodeRefusedStream   ErrCode = 0x7
	ErrCodeCancel          ErrCode = 0x8
	ErrCodeCompression     ErrCode = 0x9
	ErrCodeEnhanceYourCalm ErrCode = 0xb
)

// ConnError is a connection-level protocol violation: the whole connection
// must be torn down with GOAWAY.
type ConnError struct {
	Code   ErrCode
	Reason string
}

// Error implements error.
func (e ConnError) Error() string {
	return fmt.Sprintf("h2: connection error %d: %s", e.Code, e.Reason)
}

// StreamError fails one stream with RST_STREAM and leaves the connection up.
type StreamError struct {
	StreamID uint32
	Code     ErrCode
	Reason   string
}

// Error implements error.
func (e StreamError) Error() string {
	return fmt.Sprintf("h2: stream %d error %d: %s", e.StreamID, e.Code, e.Reason)
}

// Frame is one parsed HTTP/2 frame. Payload is only valid until the next
// ReadFrame call.
type Frame struct {
	Type     FrameType
	Flags    uint8
	StreamID uint32
	Payload  []byte
}

// FrameStats tallies bytes by the paper's Figure 5 buckets, covering both
// directions of the connection. All counters are atomic: the read loop and
// writers update them concurrently.
type FrameStats struct {
	BodyBytes atomic.Int64 // DATA payloads
	HdrBytes  atomic.Int64 // HEADERS + CONTINUATION payloads
	MgmtBytes atomic.Int64 // frame headers, management frames, preface
	Frames    atomic.Int64
}

// record attributes one frame.
func (s *FrameStats) record(t FrameType, payloadLen int) {
	s.Frames.Add(1)
	s.MgmtBytes.Add(frameHeaderLen)
	switch t {
	case FrameData:
		s.BodyBytes.Add(int64(payloadLen))
	case FrameHeaders, FrameContinuation:
		s.HdrBytes.Add(int64(payloadLen))
	default:
		s.MgmtBytes.Add(int64(payloadLen))
	}
}

// Layer exports the tallies in the form the metering layer consumes.
func (s *FrameStats) Layer() meter.H2Layer {
	body, hdr, mgmt := s.BodyBytes.Load(), s.HdrBytes.Load(), s.MgmtBytes.Load()
	return meter.H2Layer{
		BodyBytes:  body,
		HdrBytes:   hdr,
		MgmtBytes:  mgmt,
		TotalBytes: body + hdr + mgmt,
	}
}

// Snapshot returns a point-in-time copy for delta accounting.
func (s *FrameStats) Snapshot() meter.H2Layer { return s.Layer() }

// Framer reads and writes HTTP/2 frames on one connection and owns the
// byte accounting. Writes are serialized flight by flight; reads happen on
// the read loop.
type Framer struct {
	r io.Reader
	w io.Writer

	readBuf    []byte // defaultMaxFrameSize: the largest frame accepted
	readHeader [frameHeaderLen]byte

	wmu      sync.Mutex // held from Begin to End
	writeBuf []byte
	werr     error
	emission Emission

	Stats FrameStats
}

// NewFramer wraps a connection.
func NewFramer(rw io.ReadWriter) *Framer {
	return &Framer{r: rw, w: rw, readBuf: make([]byte, defaultMaxFrameSize)}
}

// ReadFrame reads and accounts one frame. The returned payload aliases the
// framer's buffer.
func (f *Framer) ReadFrame() (Frame, error) {
	if _, err := io.ReadFull(f.r, f.readHeader[:]); err != nil {
		return Frame{}, err
	}
	length := uint32(f.readHeader[0])<<16 | uint32(f.readHeader[1])<<8 | uint32(f.readHeader[2])
	if length > defaultMaxFrameSize {
		return Frame{}, ConnError{ErrCodeFrameSize, fmt.Sprintf("frame of %d bytes exceeds max %d", length, defaultMaxFrameSize)}
	}
	fr := Frame{
		Type:     FrameType(f.readHeader[3]),
		Flags:    f.readHeader[4],
		StreamID: binary.BigEndian.Uint32(f.readHeader[5:]) & 0x7FFFFFFF,
	}
	if length > 0 {
		if _, err := io.ReadFull(f.r, f.readBuf[:length]); err != nil {
			return Frame{}, err
		}
		fr.Payload = f.readBuf[:length]
	}
	f.Stats.record(fr.Type, int(length))
	return fr, nil
}

// Emission is the model parameter that sets how frames are grouped into
// flights and how soon connection-level flow-control credit is returned.
// It is a property of the endpoint being modelled, not a tuning knob: see
// the package comment for who sets it.
type Emission uint8

const (
	// MessagePerFlight, the default, coalesces a message's frames into one
	// Write and returns connection credit at half the window.
	MessagePerFlight Emission = iota
	// FramePerFlight writes every frame on its own and returns connection
	// credit on every DATA frame, as the endpoints the paper captured did.
	FramePerFlight
)

// Begin opens a flight: the frames Added until End leave in one Write (or,
// under FramePerFlight, one Write each). Flights from concurrent writers
// do not interleave.
func (f *Framer) Begin() {
	f.wmu.Lock()
	f.writeBuf, f.werr = f.writeBuf[:0], nil
}

// Add appends one frame to the open flight and accounts it. payload must be
// shorter than 1<<24 bytes.
func (f *Framer) Add(t FrameType, flags uint8, streamID uint32, payload []byte) {
	f.writeBuf = append(f.writeBuf,
		byte(len(payload)>>16), byte(len(payload)>>8), byte(len(payload)),
		byte(t), flags)
	f.writeBuf = binary.BigEndian.AppendUint32(f.writeBuf, streamID&0x7FFFFFFF)
	f.writeBuf = append(f.writeBuf, payload...)
	f.Stats.record(t, len(payload))
	if f.emission == FramePerFlight {
		f.flush()
	}
}

// flush writes what the flight holds; the first error sticks until End.
func (f *Framer) flush() {
	if len(f.writeBuf) > 0 && f.werr == nil {
		_, f.werr = f.w.Write(f.writeBuf)
	}
	f.writeBuf = f.writeBuf[:0]
}

// End sends the flight and reports its first write error. An empty flight
// writes nothing.
func (f *Framer) End() error {
	f.flush()
	err := f.werr
	f.wmu.Unlock()
	return err
}

// WriteFrame emits a flight of one frame. Safe for concurrent use.
func (f *Framer) WriteFrame(t FrameType, flags uint8, streamID uint32, payload []byte) error {
	if len(payload) >= 1<<24 {
		return ConnError{ErrCodeFrameSize, "payload too large"}
	}
	f.Begin()
	f.Add(t, flags, streamID, payload)
	return f.End()
}

// WritePreface sends the client connection preface and accounts it as
// management overhead.
func (f *Framer) WritePreface() error {
	if _, err := io.WriteString(f.w, ClientPreface); err != nil {
		return err
	}
	f.Stats.MgmtBytes.Add(int64(len(ClientPreface)))
	return nil
}

// ReadPreface consumes and verifies the client preface on the server side.
func (f *Framer) ReadPreface() error {
	buf := make([]byte, len(ClientPreface))
	if _, err := io.ReadFull(f.r, buf); err != nil {
		return err
	}
	if string(buf) != ClientPreface {
		return ConnError{ErrCodeProtocol, "bad client preface"}
	}
	f.Stats.MgmtBytes.Add(int64(len(ClientPreface)))
	return nil
}

// Setting is one SETTINGS parameter.
type Setting struct {
	ID    uint16
	Value uint32
}

// encodeSettings packs settings into a SETTINGS payload.
func encodeSettings(settings []Setting) []byte {
	buf := make([]byte, 0, len(settings)*6)
	for _, s := range settings {
		buf = binary.BigEndian.AppendUint16(buf, s.ID)
		buf = binary.BigEndian.AppendUint32(buf, s.Value)
	}
	return buf
}

// decodeSettings parses a SETTINGS payload.
func decodeSettings(payload []byte) ([]Setting, error) {
	if len(payload)%6 != 0 {
		return nil, ConnError{ErrCodeFrameSize, "SETTINGS length not a multiple of 6"}
	}
	out := make([]Setting, 0, len(payload)/6)
	for i := 0; i < len(payload); i += 6 {
		out = append(out, Setting{
			ID:    binary.BigEndian.Uint16(payload[i:]),
			Value: binary.BigEndian.Uint32(payload[i+2:]),
		})
	}
	return out, nil
}

// stripPadding removes PADDED/PRIORITY envelope from HEADERS and DATA
// payloads.
func stripPadding(fr Frame) ([]byte, error) {
	p := fr.Payload
	var padLen int
	if fr.Flags&FlagPadded != 0 {
		if len(p) < 1 {
			return nil, ConnError{ErrCodeProtocol, "padded frame too short"}
		}
		padLen = int(p[0])
		p = p[1:]
	}
	if fr.Type == FrameHeaders && fr.Flags&FlagPriority != 0 {
		if len(p) < 5 {
			return nil, ConnError{ErrCodeProtocol, "priority block too short"}
		}
		p = p[5:]
	}
	if padLen > len(p) {
		return nil, ConnError{ErrCodeProtocol, "padding exceeds payload"}
	}
	return p[:len(p)-padLen], nil
}
