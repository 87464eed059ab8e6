package h2

import (
	"encoding/binary"
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
}

// link is what ClientConn and serverConn share: the framer, the HPACK
// encoder, the send windows the peer grants and the receive credit owed to
// it. Messages leave through writeMessage on both ends.
type link struct {
	fr *Framer

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
}

func (l *link) init(rw io.ReadWriter, e Emission) {
	l.fr = NewFramer(rw)
	l.fr.emission = e
	l.henc = hpack.NewEncoder()
	l.cond = sync.NewCond(&l.mu)
	l.connSendWindow = defaultInitialWindowSize
	l.initialWindow = defaultInitialWindowSize
	l.peerMaxFrame = defaultMaxFrameSize
	l.creditAt = defaultInitialWindowSize/2 + 1
	if e == FramePerFlight {
		l.creditAt = 1
	}
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
	for !whole && err == nil && len(body) > 0 {
		var n int
		if n, err = l.reserve(st, len(body)); err != nil {
			break
		}
		flags = 0
		if n == len(body) {
			flags = FlagEndStream
		}
		err = l.fr.WriteFrame(FrameData, flags, st.id, body[:n])
		body = body[n:]
	}
	return true, err
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
