package dnsserver

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
)

// burstConn is a connection whose reads return its bytes in bursts of the
// given sizes, the last size repeating, then EOF.
type burstConn struct {
	net.Conn
	data   []byte
	bursts []byte
}

func (c *burstConn) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(c.data)
	if len(c.bursts) > 0 {
		n = min(n, int(c.bursts[0])+1)
		if len(c.bursts) > 1 {
			c.bursts = c.bursts[1:]
		}
	}
	n = copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// FuzzStreamReader feeds ReadStreamMessageInto, behind StreamReader,
// arbitrary stream bytes in arbitrary bursts through a read buffer of
// arbitrary size: pipelined frames, truncated prefixes and frames longer
// than the buffer. It never panics, every message it returns is exactly the
// frame its prefix announced — never more octets, never a byte of the next
// frame — and it stops only at a frame the stream cuts short.
func FuzzStreamReader(f *testing.F) {
	frame := func(n int) []byte {
		b := make([]byte, 2+n)
		binary.BigEndian.PutUint16(b, uint16(n))
		for i := range b[2:] {
			b[2+i] = byte(i)
		}
		return b
	}
	burst := append(append(frame(29), frame(0)...), frame(300)...)
	f.Add(burst, []byte{6, 0, 255}, uint16(64))
	f.Add(burst, []byte{}, uint16(bufLen))
	f.Add(frame(70)[:40], []byte{1}, uint16(2))     // truncated frame
	f.Add([]byte{0}, []byte{}, uint16(16))          // truncated prefix
	f.Add(frame(5000), []byte{255}, uint16(bufLen)) // longer than a pooled buffer
	f.Fuzz(func(t *testing.T, data, bursts []byte, size uint16) {
		r := StreamReader(&burstConn{data: data, bursts: bursts})
		buf := make([]byte, 2+int(size)%(bufLen-1))
		off := 0
		for {
			msg, err := ReadStreamMessageInto(r, buf)
			if err != nil {
				if off+2 <= len(data) && off+2+int(binary.BigEndian.Uint16(data[off:])) <= len(data) {
					t.Fatalf("stopped with a whole frame left at offset %d: %v", off, err)
				}
				return
			}
			n := int(binary.BigEndian.Uint16(data[off:]))
			if len(msg) != n || string(msg) != string(data[off+2:off+2+n]) {
				t.Fatalf("frame at offset %d announced %d octets, read %d: %x", off, n, len(msg), msg)
			}
			off += 2 + n
		}
	})
}
