package guard

import (
	"encoding/binary"
	"time"

	"dohcost/internal/dnswire"
)

// DNS cookies (RFC 7873) separate clients that can receive our responses
// from spoofed sources that cannot. A client sends an 8-byte client cookie;
// the server answers with a server cookie only the true owner of the source
// address ever sees, because it travels in a response to that address. A
// later query presenting a valid server cookie has proven its return path,
// and the guard exempts it from the UDP rate limits — the RFC's intended
// split between "real client behind a shared IP" and "spoofed reflection
// source".
//
// The server cookie uses the RFC 9018 interoperable layout: one byte of
// version (1), three reserved zero bytes, a four-byte unix timestamp, and
// an eight-byte SipHash-2-4 over (client cookie, version|timestamp, client
// key) under a per-epoch secret. Epochs rotate every cookieRotation: a
// cookie is validated against the secret of the epoch its own timestamp
// names, so cookies stay valid across one rotation and a stolen secret
// ages out.

// EDNS0CookieCode is the EDNS(0) option code for COOKIE (RFC 7873).
const EDNS0CookieCode = 10

// Cookie length bounds from RFC 7873: the client part is exactly 8 octets;
// a server part, when present, is 8 to 32.
const (
	clientCookieLen = 8
	serverCookieLen = 16 // our fixed RFC 9018-shaped server part
	fullCookieLen   = clientCookieLen + serverCookieLen
)

// cookieClockSkew is how far into the future a cookie timestamp may sit
// before validation rejects it (client/server clock disagreement bound).
const cookieClockSkew = 5 * time.Minute

// cookieRotation is the server-cookie epoch length: cookies validate
// against the epoch their timestamp names and expire two rotations after
// issue.
const cookieRotation = time.Hour

// cookieOption scans a packed DNS message's OPT record (dnswire.FindOPT)
// for an EDNS COOKIE option and returns its client part (exactly 8 bytes)
// and server part (possibly empty, at most 32 bytes), both borrowed from
// wire. It tolerates any malformed input by reporting ok=false; it
// allocates nothing.
func cookieOption(wire []byte) (cc, sc []byte, ok bool) {
	_, opt, end, ok := dnswire.FindOPT(wire)
	if !ok || opt == 0 {
		return nil, nil, false
	}
	for o := wire[opt+10 : end]; len(o) >= 4; {
		code := binary.BigEndian.Uint16(o)
		n := int(binary.BigEndian.Uint16(o[2:]))
		if 4+n > len(o) {
			break
		}
		if code == EDNS0CookieCode {
			data := o[4 : 4+n]
			if len(data) < clientCookieLen || len(data) > clientCookieLen+32 {
				return nil, nil, false
			}
			return data[:clientCookieLen], data[clientCookieLen:], true
		}
		o = o[4+n:]
	}
	return nil, nil, false
}

// epochOf maps a unix-seconds timestamp to its rotation epoch.
func (g *Guard) epochOf(unix int64) uint64 {
	return uint64(unix) / uint64(cookieRotation/time.Second)
}

// epochSecret derives the SipHash key for one epoch from the base secret.
// Compromise of one epoch's key does not reveal the base secret (the
// derivation is itself a PRF application), and rotation bounds how long a
// leaked or brute-forced cookie stays valid.
func (g *Guard) epochSecret(epoch uint64) (uint64, uint64) {
	return siphash24(g.k0, g.k1, epoch), siphash24(g.k0^0x9e3779b97f4a7c15, g.k1, epoch)
}

// cookieHash computes the 8-byte hash part of a server cookie for one
// (client cookie, timestamp, client key) triple under the epoch secret the
// timestamp selects.
func (g *Guard) cookieHash(cc []byte, unixTS uint32, clientKey uint64) uint64 {
	k0e, k1e := g.epochSecret(g.epochOf(int64(unixTS)))
	ccWord := binary.LittleEndian.Uint64(cc)
	meta := uint64(1)<<56 | uint64(unixTS)
	return siphash24(k0e, k1e, ccWord, meta, clientKey)
}

// validCookie reports whether sc is a server cookie this guard issued to
// clientKey for client cookie cc, recently enough to still count.
func (g *Guard) validCookie(cc, sc []byte, clientKey uint64, now time.Time) bool {
	if len(cc) != clientCookieLen || len(sc) != serverCookieLen || sc[0] != 1 {
		return false
	}
	ts := binary.BigEndian.Uint32(sc[4:8])
	nowUnix := now.Unix()
	if int64(ts) > nowUnix+int64(cookieClockSkew/time.Second) ||
		int64(ts) < nowUnix-2*int64(cookieRotation/time.Second) {
		return false
	}
	return binary.BigEndian.Uint64(sc[8:16]) == g.cookieHash(cc, ts, clientKey)
}

// appendServerCookie appends the full 24-byte COOKIE option data (client
// cookie echoed + fresh server cookie) to dst.
func (g *Guard) appendServerCookie(dst []byte, cc []byte, clientKey uint64, now time.Time) []byte {
	ts := uint32(now.Unix())
	dst = append(dst, cc[:clientCookieLen]...)
	dst = append(dst, 1, 0, 0, 0) // version, reserved
	dst = binary.BigEndian.AppendUint32(dst, ts)
	return binary.BigEndian.AppendUint64(dst, g.cookieHash(cc, ts, clientKey))
}
