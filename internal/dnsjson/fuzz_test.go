package dnsjson

import (
	"reflect"
	"testing"
)

// FuzzDecode holds Decode, which reads JSON from DoH servers, to two
// properties: no input panics it, and what it decodes survives a round
// trip — Decode(Encode(Decode(x))) equals Decode(x) whenever the first
// decode succeeds.
func FuzzDecode(f *testing.F) {
	if data, err := Encode(sampleResponse()); err == nil {
		f.Add(data)
	}
	for _, seed := range []string{
		`{nonsense`,
		`{"Status":3,"TC":true,"Question":[{"name":"Example.COM","type":1}]}`,
		`{"Answer":[{"name":"x","type":16,"TTL":5,"data":"\"v=spf1 \\\"quoted\\\"\" \"second\""}]}`,
		`{"Answer":[{"name":"x","type":16,"data":"unquoted text"}]}`,
		`{"Answer":[{"name":"x","type":257,"data":"0 issue \"ca.example\""}]}`,
		`{"Answer":[{"name":"x","type":15,"data":"10 mail.example."}]}`,
		`{"Answer":[{"name":"x","type":6,"data":"ns. host. 1 2 3 4 5"}]}`,
		`{"Additional":[{"name":"x","type":999,"data":"\\# 4 deadbeef"}]}`,
		`{"Answer":[{"name":"x","type":28,"data":"::ffff:192.0.2.1"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode of a decoded message: %v", err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode of its own encoding %s: %v", enc, err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("round trip changed the message:\n first  %+v\n second %+v\n via %s", m, back, enc)
		}
	})
}
