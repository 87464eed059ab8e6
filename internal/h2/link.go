package h2

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"sync"

	"dohcost/internal/hpack"
)

// stream is the send-side state of one stream, the part both connection
// ends share.
type stream struct {
	id uint32
	// used is how much of the peer's stream window this end has consumed,
	// less the peer's WINDOW_UPDATEs; what may still be sent is the peer's
	// SETTINGS_INITIAL_WINDOW_SIZE minus used, so a change of that setting
	// reaches every open stream without visiting it. Guarded by link.mu.
	used int64
	// reset is set when the peer resets the stream, so a writer waiting
	// for its window gives up. Guarded by link.mu.
	reset error
	// ctx is a client request's context, whose end a writer waiting for
	// window gives up on too; nil on a server's stream.
	ctx context.Context
}

// endpoint is the part of inbound frame handling on which a client and a
// server differ; link.handleFrame does the rest for both.
type endpoint interface {
	// sendStream returns the send-side state of the open stream id, or nil.
	sendStream(id uint32) *stream
	// handleHeaders takes a complete, decoded header block. fields is the
	// connection's scratch: valid until the next frame is handled.
	handleHeaders(id uint32, fields []hpack.HeaderField, endStream bool) error
	handleData(fr Frame) error
	handleReset(fr Frame)
}

const (
	// maxHeaderBlock bounds one header block across HEADERS and its
	// CONTINUATION frames, and is advertised as
	// SETTINGS_MAX_HEADER_LIST_SIZE: far above any DoH request or response,
	// so a peer that streams CONTINUATION past it is flooding.
	maxHeaderBlock = 64 << 10
	// maxKeptFields is the decoded-fields scratch, and a recycled request's
	// header capacity, worth keeping between messages.
	maxKeptFields = 32
	// maxKeptBlock is the header-block assembly capacity worth keeping
	// between messages: a DoH header block is a few dozen octets, so one
	// large block does not pin up to maxHeaderBlock for the connection's
	// life.
	maxKeptBlock = 4 << 10
)

// link is what ClientConn and serverConn share: the framer, both HPACK
// directions, header-block assembly, the send windows the peer grants and
// the receive credit owed to it. Frames arrive through handleFrame and
// messages leave through writeMessage on both ends.
type link struct {
	fr  *Framer
	end endpoint

	// encMu orders HPACK encoding with header-block emission, and a
	// client's stream ids with both; hbuf and fields are scratch under it.
	encMu  sync.Mutex
	henc   *hpack.Encoder
	hbuf   []byte
	fields []hpack.HeaderField

	mu             sync.Mutex
	cond           *sync.Cond // window credit or err arrived
	connSendWindow int64
	initialWindow  int64 // the peer's SETTINGS_INITIAL_WINDOW_SIZE
	peerMaxFrame   uint32
	err            error // set once: the connection takes no more messages

	// Connection-level receive credit consumed but not yet returned, and
	// the debt at which it is (read loop only).
	owed, creditAt int

	// The header block being assembled — its stream, whether its HEADERS
	// carried END_STREAM, whether CONTINUATION must follow — and the scratch
	// it is decoded into (read loop only).
	hdec       *hpack.Decoder
	contStream uint32
	contEnd    bool
	inContinue bool
	contBuf    []byte
	decoded    []hpack.HeaderField
}

func (l *link) init(rw io.ReadWriter, e Emission, end endpoint) {
	l.fr = NewFramer(rw)
	l.fr.emission = e
	l.end = end
	l.henc = hpack.NewEncoder()
	l.hdec = hpack.NewDecoder()
	l.cond = sync.NewCond(&l.mu)
	l.connSendWindow = defaultInitialWindowSize
	l.initialWindow = defaultInitialWindowSize
	l.peerMaxFrame = defaultMaxFrameSize
	l.creditAt = defaultInitialWindowSize/2 + 1
	if e == FramePerFlight {
		l.creditAt = 1
	}
}

// writeSettings opens the connection with this end's SETTINGS: own, and the
// bound headerFragment enforces. The FramePerFlight model keeps to the
// SETTINGS the study's figures were recorded with.
func (l *link) writeSettings(own ...Setting) error {
	if l.fr.emission != FramePerFlight {
		own = append(own, Setting{SettingMaxHeaderListSize, maxHeaderBlock})
	}
	return l.fr.WriteFrame(FrameSettings, 0, 0, encodeSettings(own))
}

// handleFrame acts on one inbound frame: what both ends treat alike here,
// the rest through l.end.
func (l *link) handleFrame(fr Frame) error {
	if l.inContinue && fr.Type != FrameContinuation {
		return ConnError{ErrCodeProtocol, "expected CONTINUATION"}
	}
	switch fr.Type {
	case FrameSettings:
		return l.handleSettings(fr)
	case FramePing:
		return l.handlePing(fr)
	case FrameWindowUpdate:
		return l.handleWindowUpdate(fr, l.end.sendStream(fr.StreamID))
	case FrameHeaders:
		block, err := stripPadding(fr)
		if err != nil {
			return err
		}
		l.contStream, l.contEnd, l.contBuf = fr.StreamID, fr.Flags&FlagEndStream != 0, l.contBuf[:0]
		return l.headerFragment(fr, block)
	case FrameContinuation:
		if !l.inContinue || fr.StreamID != l.contStream {
			return ConnError{ErrCodeProtocol, "unexpected CONTINUATION"}
		}
		return l.headerFragment(fr, fr.Payload)
	case FrameData:
		return l.end.handleData(fr)
	case FrameRSTStream:
		l.end.handleReset(fr)
	case FrameGoAway:
		return ConnError{ErrCodeNo, "received GOAWAY"}
	case FramePriority, FramePushPromise:
		// PRIORITY is advisory; a client cannot push, and a server's push is
		// disabled by the client's SETTINGS and safe to ignore.
	}
	return nil
}

// headerFragment adds one frame's share of the header block being assembled
// and, when the frame ends it, decodes the block into the connection's
// scratch and hands it to the end.
func (l *link) headerFragment(fr Frame, block []byte) error {
	if len(l.contBuf)+len(block) > maxHeaderBlock {
		return ConnError{ErrCodeEnhanceYourCalm, "header block above 64 KiB"}
	}
	l.contBuf = append(l.contBuf, block...)
	if l.inContinue = fr.Flags&FlagEndHeaders == 0; l.inContinue {
		return nil
	}
	fields, err := l.hdec.DecodeAppend(l.decoded[:0], l.contBuf)
	if err != nil {
		return ConnError{ErrCodeCompression, err.Error()}
	}
	err = l.end.handleHeaders(l.contStream, fields, l.contEnd)
	// Between messages the scratch pins no peer's strings, and no more
	// memory than ordinary requests need.
	clear(fields)
	if l.decoded = fields; cap(fields) > maxKeptFields {
		l.decoded = nil
	}
	if cap(l.contBuf) > maxKeptBlock {
		l.contBuf = nil
	}
	return err
}

// handlePing answers a PING (RFC 7540 §6.7). The payload is echoed from the
// framer's read buffer: the flight has copied it before the next read.
func (l *link) handlePing(fr Frame) error {
	switch {
	case fr.StreamID != 0:
		return ConnError{ErrCodeProtocol, "PING on a stream"}
	case len(fr.Payload) != 8:
		return ConnError{ErrCodeFrameSize, "PING payload is not 8 octets"}
	case fr.Flags&FlagAck != 0:
		return nil
	}
	return l.fr.WriteFrame(FramePing, FlagAck, 0, fr.Payload)
}

// peerReset records the peer's RST_STREAM on st and wakes its writer.
func (l *link) peerReset(st *stream, fr Frame) {
	code := ErrCodeProtocol // a malformed RST_STREAM still resets
	if len(fr.Payload) == 4 {
		code = ErrCode(binary.BigEndian.Uint32(fr.Payload))
	}
	l.mu.Lock()
	st.reset = StreamError{st.id, code, "reset by peer"}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// goAway tells the peer the connection is over, with the code of the
// connection error that ended it, if one did. The write is best effort: the
// connection closes either way.
func (l *link) goAway(err error) {
	var payload [8]byte // last stream id 0: nothing is promised to be processed
	var ce ConnError
	if errors.As(err, &ce) {
		binary.BigEndian.PutUint32(payload[4:], uint32(ce.Code))
	}
	_ = l.fr.WriteFrame(FrameGoAway, 0, 0, payload[:])
}

// fail marks the connection dead with its first error and wakes writers
// waiting for credit.
func (l *link) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// writeMessage sends one message on st: the header block of l.fields, then
// body. The caller holds encMu — it filled l.fields, header blocks must
// reach the wire in the order they were encoded, and a client opens its
// stream under the same lock so ids ascend — and writeMessage releases it
// as soon as the block has left.
//
// A body that fits the connection window, the stream window and one frame
// — every DNS message — rides the header block's flight. One that does not
// follows frame by frame as credit arrives; with noWait (the caller is the
// read loop, the only goroutine that can receive that credit) nothing is
// written instead and sent is false.
func (l *link) writeMessage(st *stream, body []byte, noWait bool) (sent bool, err error) {
	l.mu.Lock()
	maxFrame := int(l.peerMaxFrame)
	whole := int64(len(body)) <= min(l.connSendWindow, l.initialWindow-st.used, int64(maxFrame))
	if whole {
		l.connSendWindow -= int64(len(body))
		st.used += int64(len(body))
	}
	l.mu.Unlock()
	if !whole && noWait {
		l.encMu.Unlock()
		return false, nil
	}
	l.hbuf = l.henc.AppendEncode(l.hbuf[:0], l.fields)
	l.fr.Begin()
	typ, flags := FrameHeaders, uint8(0)
	if len(body) == 0 {
		flags = FlagEndStream
	}
	for block := l.hbuf; ; typ, flags = FrameContinuation, 0 {
		chunk := block[:min(len(block), maxFrame)]
		if block = block[len(chunk):]; len(block) == 0 {
			l.fr.Add(typ, flags|FlagEndHeaders, st.id, chunk)
			break
		}
		l.fr.Add(typ, flags, st.id, chunk)
	}
	if whole && len(body) > 0 {
		l.fr.Add(FrameData, FlagEndStream, st.id, body)
	}
	err = l.fr.End()
	l.encMu.Unlock()
	if !whole && err == nil {
		err = l.writeData(st, body)
	}
	return true, err
}

// writeData sends body on st frame by frame as send window arrives; a
// client's stream gives up when its request's context ends. It is a leaf of
// its own so that writeMessage's frame, under which a new goroutine's
// response encodes its header block, stays small (see serverConn.release).
func (l *link) writeData(st *stream, body []byte) error {
	if st.ctx != nil {
		stop := context.AfterFunc(st.ctx, func() {
			l.mu.Lock()
			l.cond.Broadcast()
			l.mu.Unlock()
		})
		defer stop()
	}
	for len(body) > 0 {
		n, err := l.reserve(st, len(body))
		if err != nil {
			return err
		}
		flags := uint8(0)
		if n == len(body) {
			flags = FlagEndStream
		}
		if err := l.fr.WriteFrame(FrameData, flags, st.id, body[:n]); err != nil {
			return err
		}
		body = body[n:]
	}
	return nil
}

// reserve blocks until both the connection and st have send window, then
// takes up to want bytes of it, one frame at most.
func (l *link) reserve(st *stream, want int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.err != nil {
			return 0, l.err
		}
		if st.reset != nil {
			return 0, st.reset
		}
		if st.ctx != nil && st.ctx.Err() != nil {
			return 0, st.ctx.Err()
		}
		n := min(int64(want), l.connSendWindow, l.initialWindow-st.used, int64(l.peerMaxFrame))
		if n > 0 {
			l.connSendWindow -= n
			st.used += n
			return int(n), nil
		}
		l.cond.Wait()
	}
}

// credit returns the flow-control credit an n-byte DATA frame consumed: to
// the connection once creditAt bytes are owed, and to streamID — zero when
// the frame ended its stream or the stream is gone — at once.
func (l *link) credit(streamID uint32, n int) error {
	l.owed += n
	perStream := streamID != 0 && n > 0
	if l.owed < l.creditAt && !perStream {
		return nil
	}
	var inc [4]byte
	l.fr.Begin()
	if l.owed >= l.creditAt {
		binary.BigEndian.PutUint32(inc[:], uint32(l.owed))
		l.fr.Add(FrameWindowUpdate, 0, 0, inc[:])
		l.owed = 0
	}
	if perStream {
		binary.BigEndian.PutUint32(inc[:], uint32(n))
		l.fr.Add(FrameWindowUpdate, 0, streamID, inc[:])
	}
	return l.fr.End()
}

// handleWindowUpdate applies the peer's WINDOW_UPDATE to the connection
// (fr.StreamID zero) or to st, which is nil when the stream is gone.
func (l *link) handleWindowUpdate(fr Frame, st *stream) error {
	if len(fr.Payload) != 4 {
		return ConnError{ErrCodeFrameSize, "bad WINDOW_UPDATE"}
	}
	inc := int64(binary.BigEndian.Uint32(fr.Payload) & maxWindow)
	l.mu.Lock()
	defer l.mu.Unlock()
	if fr.StreamID == 0 {
		l.connSendWindow += inc
	} else if st != nil {
		st.used -= inc
	}
	if l.connSendWindow > maxWindow || (st != nil && l.initialWindow-st.used > maxWindow) {
		return ConnError{ErrCodeFlowControl, "WINDOW_UPDATE overflows the window"}
	}
	l.cond.Broadcast()
	return nil
}

// handleSettings applies and acknowledges the peer's SETTINGS.
func (l *link) handleSettings(fr Frame) error {
	if fr.Flags&FlagAck != 0 {
		return nil
	}
	settings, err := decodeSettings(fr.Payload)
	if err != nil {
		return err
	}
	for _, s := range settings {
		switch s.ID {
		case SettingInitialWindowSize:
			if s.Value > maxWindow {
				return ConnError{ErrCodeFlowControl, "SETTINGS_INITIAL_WINDOW_SIZE above 2^31-1"}
			}
			l.mu.Lock()
			l.initialWindow = int64(s.Value)
			l.cond.Broadcast()
			l.mu.Unlock()
		case SettingMaxFrameSize:
			// Out of range, a zero above all, would make no progress
			// splitting a header block.
			if s.Value < defaultMaxFrameSize || s.Value >= 1<<24 {
				return ConnError{ErrCodeProtocol, "SETTINGS_MAX_FRAME_SIZE out of range"}
			}
			l.mu.Lock()
			l.peerMaxFrame = s.Value
			l.mu.Unlock()
		case SettingHeaderTableSize:
			l.encMu.Lock()
			l.henc.SetMaxDynamicTableSize(int(s.Value))
			l.encMu.Unlock()
		}
	}
	return l.fr.WriteFrame(FrameSettings, FlagAck, 0, nil)
}
